"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
arithmetic is exact; there is no floating point anywhere in the package.
0 x n and n x 0 matrices are legal and behave as zero maps.

A subspace of F_p^n is the canonical (RREF) basis of its rows, and each
question about one is answered from a single elimination: row_space_basis
spans, row_kernel gives the left kernel, coordinates reads a vector off its
pivot columns, and complement picks unit vectors completing it together
with the projection onto them.  The linear systems behind Hom, Ext and
presentations use solve and kernel_basis, which treat unknowns as columns
(a @ x = b).

Elimination is deterministic Gaussian elimination with first-nonzero
pivoting, so every output is byte-for-byte reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def check_prime(p: int) -> int:
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise InputError(f"characteristic must be prime, got {p}")
    return p


def fmat(data, p: int) -> np.ndarray:
    """Normalize nested lists / arrays into an int64 matrix mod p."""
    a = np.array(data, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    return (a @ b) % p


def inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (int64) and pivot columns; rank = len(pivots).

    The elimination runs on Python lists: almost every matrix the engine
    reduces is at most 3x3, and at those sizes numpy's per-call dispatch costs
    more than the arithmetic.  Entries of a pivot row left of its pivot column
    are already zero, so row operations start at that column.
    """
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.asarray(m, dtype=np.int64) % p, []
    a = (m % p).tolist()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = inv_mod(a[r][c], p)
        piv = [x * inv % p for x in a[r][c:]]
        a[r][c:] = piv
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i][c:] = [(x - f * y) % p for x, y in zip(a[i][c:], piv)]
        pivots.append(c)
        r += 1
    return np.array(a, dtype=np.int64), pivots


def rank(m: np.ndarray, p: int) -> int:
    return len(rref(m, p)[1]) if m.size else 0


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space {x : m @ x = 0}, as columns.

    Empty (cols x 0) result iff m is injective as a linear map.
    """
    rows, cols = m.shape
    r, pivots = rref(m, p)
    piv = set(pivots)
    free = [c for c in range(cols) if c not in piv]
    out = zeros(cols, len(free))
    for k, f in enumerate(free):
        out[f, k] = 1
        for i, c in enumerate(pivots):
            out[c, k] = (-r[i, f]) % p
    return out


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One particular solution x of a @ x = b (column convention), or None."""
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}")
    n = a.shape[1]
    aug = np.concatenate([a % p, b % p], axis=1)
    r, pivots = rref(aug, p)
    if any(c >= n for c in pivots):
        return None
    x = zeros(n, b.shape[1])
    for i, c in enumerate(pivots):
        x[c] = r[i, n:]
    return x


def row_space_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (RREF rows, zero rows dropped) of the row space."""
    if not m.size:
        return zeros(0, m.shape[1])
    r, pivots = rref(m, p)
    return r[: len(pivots)]


def row_kernel(m: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {v : v @ m = 0}.

    In the RREF of [m | I] the rows below rank(m) vanish on the m side, and
    their identity side is the kernel, already in RREF.
    """
    rows, cols = m.shape
    if not m.size:
        return eye(rows)
    r, pivots = rref(np.concatenate([m, eye(rows)], axis=1), p)
    return r[sum(c < cols for c in pivots):, cols:]


def coordinates(v: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray | None:
    """x with x @ rows = v for RREF `rows`, or None if v leaves their span.

    The pivot columns of `rows` carry an identity, so x is v read there.
    """
    v = v % p
    x = v[:, (rows != 0).argmax(axis=1)] if rows.size else zeros(v.shape[0], 0)
    return x if np.array_equal(mul(x, rows, p), v) else None


def complement(sub: np.ndarray, order, p: int) -> tuple[list[int], np.ndarray]:
    """Unit vectors completing rowspace(sub), and the projection onto them.

    `chosen` lists the indices in `order` whose unit vectors are independent
    modulo rowspace(sub) and the earlier ones: one RREF of sub with its
    columns placed as (columns not in order, then order reversed) has no
    pivot exactly there.  A pivot row r with pivot column c says
    e_c = -r[chosen] modulo the subspace, which is row c of `projection`, so
    v @ projection are the coordinates of v's class in F^n / rowspace(sub).
    The projection is meaningful when rowspace(sub) and the chosen units
    span F^n.
    """
    order = list(order)
    n = sub.shape[1]
    listed = set(order)
    perm = [c for c in range(n) if c not in listed] + order[::-1]
    r, pivots = rref(sub[:, perm], p)
    pivot_set = set(pivots)
    free = [j for j in range(n - 1, n - len(order) - 1, -1) if j not in pivot_set]
    chosen = [perm[j] for j in free]
    # built as lists: these matrices are tiny, and numpy indexing costs more
    rows = [[0] * len(free) for _ in range(n)]
    for k, c in enumerate(chosen):
        rows[c][k] = 1
    for row, c in zip(r.tolist(), pivots):
        rows[perm[c]] = [-row[j] % p for j in free]
    return chosen, np.array(rows, dtype=np.int64).reshape(n, len(free))


def subspace_sum(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of rowspace(u) + rowspace(v)."""
    if u.shape[1] != v.shape[1]:
        raise ValueError("ambient dimensions differ")
    return row_space_basis(np.concatenate([u, v]), p)


def signature(m: np.ndarray) -> tuple:
    """Hashable canonical form for an already-canonical matrix."""
    return (m.shape, tuple(int(x) for x in m.ravel()))


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]
