"""Universe completeness against closed forms that do not go through any builder.

Gabriel's theorem: over any field, the indecomposables of a Dynkin quiver
correspond one to one to the positive roots of its Tits form
q(x) = sum_v x_v^2 - sum_{a: s -> t} x_s x_t: 6 for A_3, 15 for A_5, 12 for
D_4, 20 for D_5 and 36 for E_6.  The Kronecker quiver over F_q
has one indecomposable at each (k, k+1) and (k+1, k), and at (n, n) one per
closed point of P^1 of degree dividing n.  k[x]/(x^2) has only k and itself.
The indecomposables of a Nakayama algebra are uniserial, one per top vertex
and length: linear A_n with every path of length r zero has
sum_{k=1}^{min(r,n)} (n-k+1) of them, the oriented n-cycle with rad^r = 0
has n*r (Assem, Simson and Skowronski, Elements I, ch. V).
For a quiver without relations, dim Hom(M, N) - dim Ext^1(M, N) is the Euler
form sum_v m_v n_v - sum_{a: s -> t} m_s n_t of the dimension vectors.  The
wide subcategories and the torsion-free classes of a Dynkin quiver, in any
orientation, are both counted by the W-Catalan number: C_(n+1) for A_n, 50
for D_4 and 182 for D_5 (Ingalls and Thomas, Compositio 2009).  They are the
Filt closures of the semibricks and of the cofinally closed monobricks
(Enomoto, Adv. Math. 2021), so the two monobrick counts are W-Catalan too.
The Hasse diagram of the torsion-free classes of a representation-finite
algebra with n simples is n-regular, because every support tau-tilting
module has exactly n mutations, and its join-irreducibles (the classes with
exactly one lower cover) are as many as the bricks (Adachi, Iyama and
Reiten, Compositio 2014; Demonet, Iyama, Reading, Reiten and Thomas).
"""

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from schurrec.algebras import Quiver, algebra_from_quiver, linear_quiver
from schurrec.census import all_left_schur, all_monobricks, all_torf, all_wide
from schurrec.errors import BudgetExceeded
from schurrec.modules import IndecUniverse, Thresholds, build_universe, ext1_basis, hom_basis
from schurrec.storage import load_algebra_file
from schurrec.subcats import all_bricks, id_mask, mask_ids
from conftest import tree_quiver


def positive_roots(nv, edges, bound, top):
    """Nonzero x >= 0 with q(x) = 1 and total <= bound.

    Every positive root lies below the highest root, so no coordinate exceeds
    top, the highest root's largest coefficient.
    """
    return Counter(
        x for x in itertools.product(range(min(top, bound) + 1), repeat=nv)
        if 0 < sum(x) <= bound
        and sum(d * d for d in x) - sum(x[s] * x[t] for s, t in edges) == 1
    )


def mobius(n):
    out, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    return -out if m > 1 else out


def closed_points_p1(q, d):
    """Closed points of degree d on P^1 over F_q: monic irreducibles, plus infinity."""
    monic_irreducible = sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d
    return monic_irreducible + (d == 1)


def kronecker_dims(q, bound):
    want = Counter()
    for k in range(bound):
        if 2 * k + 1 <= bound:
            want[(k, k + 1)] += 1
            want[(k + 1, k)] += 1
    for n in range(1, bound // 2 + 1):
        want[(n, n)] = sum(closed_points_p1(q, d) for d in range(1, n + 1) if n % d == 0)
    return want


def dims_of(u):
    return Counter(m.dims for m in u.modules)


def oriented(labels, edges, seed):
    """The quiver with each edge of the tree pointing a random way."""
    rng = random.Random(seed)
    arrows = []
    for k, (s, t) in enumerate(edges):
        if rng.random() < 0.5:
            s, t = t, s
        arrows.append((f"a{k}", labels[s], labels[t]))
    return Quiver(tuple(labels), tuple(arrows))


# name -> (labels, edges, highest root, number of positive roots)
DYNKIN = {
    "A3": (("1", "2", "3"), ((0, 1), (1, 2)), (1, 1, 1), 6),
    "A5": (("1", "2", "3", "4", "5"), ((0, 1), (1, 2), (2, 3), (3, 4)), (1, 1, 1, 1, 1), 15),
    "D4": (("1", "2", "3", "4"), ((0, 3), (1, 3), (2, 3)), (1, 1, 1, 2), 12),
    "D5": (("1", "2", "3", "4", "5"), ((0, 1), (1, 2), (2, 3), (2, 4)), (1, 2, 2, 1, 1), 20),
    "E6": (("1", "2", "3", "4", "5", "6"), ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)),
           (1, 2, 3, 2, 1, 2), 36),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, bound", [("A3", 3), ("A5", 5), ("D4", 4), ("D4", 5),
                                         ("D4", 6), ("D5", 7), ("E6", 11)])
def test_dynkin_dims_are_positive_roots(name, bound, seed, p):
    labels, edges, highest, n_roots = DYNKIN[name]
    alg = algebra_from_quiver(oriented(labels, edges, seed), None, p)
    want = positive_roots(len(labels), edges, bound, max(highest))
    assert dims_of(build_universe(alg, bound)) == want
    # the highest root is the only root of its total
    if bound >= sum(highest) - 1:
        assert sum(want.values()) == n_roots - (bound < sum(highest))


def test_closed_point_counts():
    assert [closed_points_p1(2, d) for d in range(1, 5)] == [3, 1, 2, 3]
    assert [closed_points_p1(3, d) for d in range(1, 4)] == [4, 3, 8]


KRONECKER = Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2")))


@pytest.mark.parametrize("p", [2, 3])
def test_kronecker_matches_closed_points(p):
    alg = algebra_from_quiver(KRONECKER, None, p)
    u = build_universe(alg, 6)
    assert u.strategy == "extensions"
    assert dims_of(u) == kronecker_dims(p, 6)


def test_square_zero_loop_has_two_indecomposables():
    alg = algebra_from_quiver(Quiver(("1",), (("x", "1", "1"),)), [[(1, ["x", "x"])]], 3)
    assert dims_of(build_universe(alg, 8)) == Counter({(1,): 1, (2,): 1})


def nakayama(n, r, p, cyclic):
    """Linear A_n or the oriented n-cycle, with every path of length r zero."""
    verts = tuple(str(i) for i in range(n))
    arrows = tuple((f"a{i}", verts[i], verts[(i + 1) % n]) for i in range(n if cyclic else n - 1))
    starts = range(n) if cyclic else range(n - r)
    rels = [[(1, [arrows[(i + k) % n][0] for k in range(r)])] for i in starts]
    return algebra_from_quiver(Quiver(verts, arrows), rels, p)


def uniserial_dims(n, r, cyclic):
    """Dimension vectors of the uniserials with top at vertex i and length k <= r."""
    out = Counter()
    for i in range(n):
        for k in range(1, r + 1 if cyclic else min(r, n - i) + 1):
            dims = [0] * n
            for s in range(k):
                dims[(i + s) % n] += 1
            out[tuple(dims)] += 1
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_nakayama_universes_are_the_uniserials(p):
    for n in range(1, 7):
        for r in range(2, 5):
            if n > 1:
                u = build_universe(nakayama(n, r, p, cyclic=False), n)
                assert len(u.modules) == sum(n - k + 1 for k in range(1, min(r, n) + 1))
                assert dims_of(u) == uniserial_dims(n, r, cyclic=False)
            u = build_universe(nakayama(n, r, p, cyclic=True), r)
            assert len(u.modules) == n * r
            assert dims_of(u) == uniserial_dims(n, r, cyclic=True)


# relation-free acyclic quivers; kA4 gets its universe without the extension builder
EULER_QUIVERS = {
    "kA4_p2": (linear_quiver(["1", "2", "3", "4"]), 2),
    "kronecker_p2": (KRONECKER, 2),
    "kronecker_p3": (KRONECKER, 3),
    "d4_p3": (Quiver(DYNKIN["D4"][0], (("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4"))), 3),
    **{f"{name}_seed{seed}_p{p}": (oriented(*DYNKIN[name][:2], seed), p)
       for name in DYNKIN for seed in range(3) for p in (2, 3)},
}


@pytest.mark.parametrize("name", list(EULER_QUIVERS))
def test_euler_form_on_universe_pairs(name):
    quiver, p = EULER_QUIVERS[name]
    alg = algebra_from_quiver(quiver, None, p)
    arrows = [(alg.src[a], alg.tgt[a]) for a in alg.arrows]
    mods = build_universe(alg, 4).modules
    for m in mods:
        for n in mods:
            euler = sum(a * b for a, b in zip(m.dims, n.dims)) \
                - sum(m.dims[s] * n.dims[t] for s, t in arrows)
            assert len(hom_basis(m, n)) - ext1_basis(m, n).dim == euler


# non-linear orientations, each at a bound that holds its highest root;
# name -> (quiver, p, bound, W-Catalan number)
W_CATALAN = {
    "zigzag_A3": (tree_quiver([("1", "2"), ("3", "2")]), 2, 3, 14),
    "alternating_A4": (tree_quiver([("1", "2"), ("3", "2"), ("3", "4")]), 2, 4, 42),
    "d4_reversed_arm": (tree_quiver([("4", "1"), ("2", "4"), ("3", "4")]), 3, 5, 50),
}


@pytest.mark.parametrize("name", list(W_CATALAN))
def test_wide_and_torsion_free_counts_are_w_catalan(name):
    quiver, p, bound, catalan = W_CATALAN[name]
    th = Thresholds(subset_cap=16)  # below 2^|universe|: the subset oracle stays off
    u = build_universe(algebra_from_quiver(quiver, None, p), bound, thresholds=th)
    wide, torf = all_wide(u), all_torf(u)
    assert not wide.oracle_ran and not torf.oracle_ran
    assert wide.counts["wide"] == torf.counts["torf"] == catalan


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_d5_semibricks_and_cc_monobricks_are_w_catalan(seed, p):
    # the monobrick census decides this without the left Schur census or its audit
    labels, edges, highest, _ = DYNKIN["D5"]
    u = build_universe(algebra_from_quiver(oriented(labels, edges, seed), None, p), sum(highest))
    counts = all_monobricks(u).counts
    assert counts["bricks"] == 20
    assert counts["semibricks"] == counts["cc_monobricks"] == 182


SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
# sample input, bound -> (torsion-free classes, Hasse covers, bricks)
TORF_LATTICES = {
    ("a3.json", 3): (14, 21, 6),
    ("a4.json", 4): (42, 84, 10),
    ("d4_p3.json", 6): (50, 100, 12),
    ("a6.json", 6): (429, 1287, 21),
}


@functools.cache
def torf_census(sample: str, bound: int):
    u = build_universe(load_algebra_file(SAMPLES / sample), bound)
    return u, all_torf(u)


def lower_covers(classes: list[int]) -> dict[int, list[int]]:
    """For each class, as an id mask, the maximal classes strictly inside it.

    Classes are scanned from the largest down, so a class below some other
    class of the lower set is below one already kept."""
    by_size = sorted(classes, key=lambda c: -bin(c).count("1"))
    covers = {}
    for g in classes:
        kept: list[int] = []
        for f in by_size:
            if f != g and f & g == f and not any(f & h == f for h in kept):
                kept.append(f)
        covers[g] = kept
    return covers


def test_torf_walk_passes_the_brick_wall():
    """kA6 at bound 6 has 21 bricks, one more than the brick count that once
    bounded the monobrick census.  The walk finds the Catalan number C_7 =
    429; the monobrick census is bounded by its output instead, so with a
    state budget of 1,805 it exits asking for its 1,806th monobrick."""
    u, torf = torf_census("a6.json", 6)
    assert len(mask_ids(all_bricks(u))) == 21
    tight = IndecUniverse(u.algebra, u.bound, u.strategy, u.modules,
                          replace(u.thresholds, enumeration_states=1805))
    with pytest.raises(BudgetExceeded) as exc:
        all_monobricks(tight)
    assert (exc.value.needed, exc.value.limit) == (1806, 1805)
    assert torf.counts == {"torf": 429} and not torf.oracle_ran


def large_schroeder(n: int) -> int:
    """S_0 = 1 and S_n = S_(n-1) + sum_k S_k S_(n-1-k): 1, 2, 6, 22, 90, 394, 1806."""
    s = [1]
    for m in range(1, n + 1):
        s.append(s[m - 1] + sum(s[k] * s[m - 1 - k] for k in range(m)))
    return s[n]


@pytest.mark.parametrize("sample, n", [("a3.json", 3), ("a4.json", 4), ("a6.json", 6)])
def test_linear_a_census_counts_large_schroeder_and_catalan(sample, n):
    """Linear kA_n at bound n: the monobricks, all representable, and so the
    left Schur subcategories, are as many as the large Schröder number S_n;
    the semibricks, the cofinally closed monobricks, the wide subcategories
    and the torsion-free classes are C_(n+1).  kA6 gives 1,806 and 429."""
    u, torf = torf_census(sample, n)
    mono, schur = all_monobricks(u).counts, all_left_schur(u).counts
    catalan = math.comb(2 * n + 2, n + 1) // (n + 2)
    assert mono["monobricks"] == schur["left_schur"] == large_schroeder(n)
    assert schur["non_representable_monobricks"] == 0
    assert mono["semibricks"] == mono["cc_monobricks"] == catalan
    assert schur["wide"] == schur["torsion_free"] == torf.counts["torf"] == catalan


@pytest.mark.parametrize("sample, bound", list(TORF_LATTICES))
def test_torf_hasse_diagram_is_regular_with_a_join_irreducible_per_brick(sample, bound):
    """Computed from the census id sets only: n-regular with n |torf| / 2
    covers for n vertices, and as many join-irreducibles as bricks."""
    classes_count, covers_count, bricks = TORF_LATTICES[sample, bound]
    u, torf = torf_census(sample, bound)
    n = u.algebra.nv
    classes = [id_mask(e.ids) for e in torf.entries]
    lower = lower_covers(classes)
    upper = Counter(f for fs in lower.values() for f in fs)
    assert len(classes) == classes_count
    assert sum(map(len, lower.values())) == covers_count == n * classes_count // 2
    assert all(len(lower[c]) + upper[c] == n for c in classes)
    assert sum(len(fs) == 1 for fs in lower.values()) == bricks == len(mask_ids(all_bricks(u)))
