"""Closed-form answers that the benchmark checks the engine's outputs against.

None of these goes through the engine's own Hom/Ext code, and none depends
on which module the engine picks to represent an isomorphism class: they
predict multisets of dimension vectors and counts only.

- Kronecker quiver over F_q: the preprojectives and preinjectives have
  dimension vectors (k, k+1) and (k+1, k), one each; the regular
  indecomposables of dimension (n, n) are one per closed point x of P^1 of
  degree d dividing n (the uniserial of length n/d at x).
- Dynkin quivers (Gabriel's theorem): one indecomposable per positive root of
  the Tits form q(x) = sum x_v^2 - sum_{a: s->t} x_s x_t, over every field.
- k[x]/(x^2): a nilpotent x with x^2 = 0 has Jordan blocks of size 1 and 2.
- Linear A_n: n(n+1)/2 bricks (the interval modules); semibricks, wide
  subcategories and torsion-free classes are counted by the Catalan number
  C_{n+1} (Ingalls-Thomas); monobricks and left Schur subcategories by the
  large Schroeder number S_n (1, 2, 6, 22, 90, ...).
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb


def _mobius(n: int) -> int:
    out, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    return -out if m > 1 else out


def closed_points_p1(q: int, d: int) -> int:
    """Closed points of degree d on the projective line over F_q."""
    if d == 1:
        return q + 1
    return sum(_mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


def kronecker_dims(q: int, bound: int) -> Counter:
    """(source dim, target dim) -> number of indecomposables, total <= bound."""
    out: Counter = Counter()
    for k in range(bound):
        if 2 * k + 1 <= bound:
            out[(k, k + 1)] += 1
            out[(k + 1, k)] += 1
    for n in range(1, bound // 2 + 1):
        out[(n, n)] = sum(closed_points_p1(q, d) for d in range(1, n + 1) if n % d == 0)
    return out


def tits_positive_roots(vertices, arrows, bound: int) -> list[tuple[int, ...]]:
    """Nonzero x >= 0 with total <= bound and q(x) = 1, in vertex order."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[s], index[t]) for _, s, t in arrows]
    roots = []
    for x in itertools.product(range(bound + 1), repeat=len(vertices)):
        if not 0 < sum(x) <= bound:
            continue
        if sum(d * d for d in x) - sum(x[s] * x[t] for s, t in edges) == 1:
            roots.append(x)
    return roots


def square_zero_loop_dims(bound: int) -> list[tuple[int]]:
    return [(d,) for d in (1, 2) if d <= bound]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def large_schroeder(n: int) -> int:
    s = [1]
    for m in range(1, n + 1):
        s.append(s[m - 1] + sum(s[k] * s[m - 1 - k] for k in range(m)))
    return s[n]


def linear_a_counts(n: int) -> dict:
    """Census counts of linear A_n with every indecomposable in the universe."""
    wide = catalan(n + 1)
    schur = large_schroeder(n)
    return {"bricks": n * (n + 1) // 2, "monobricks": schur, "left_schur": schur,
            "semibricks": wide, "wide": wide, "torsion_free": wide}
