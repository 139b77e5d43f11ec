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

rref is the one elimination; row_space_basis, row_kernel, complement,
solve, kernel_basis, rank and subspace_sum all call it.  It uses
first-nonzero pivoting, so every output is byte-for-byte reproducible, and
runs on Python lists, converted once in and once out: nearly every matrix
the engine reduces has at most three rows, where numpy's per-call dispatch
costs more than the arithmetic (rows packed into Python ints beat list
rows only from about 5 x 10 up).  At p = 2 a column is cleared by XOR-ing
the pivot row into the other rows.  eye copies a cached identity.
"""

from __future__ import annotations

import functools

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


@functools.cache
def _identity(n: int) -> np.ndarray:
    one = np.eye(n, dtype=np.int64)
    one.flags.writeable = False
    return one


def eye(n: int) -> np.ndarray:
    return _identity(n).copy()


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

    Entries of a pivot row left of its pivot column are already zero, so row
    operations start at that column.
    """
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.asarray(m, dtype=np.int64) % p, []
    a = [[x % p for x in row] for row in m.tolist()]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for pr in range(r, rows):
            if a[pr][c]:
                break
        else:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][c:]
        if piv[0] != 1:  # never at p = 2
            inv = inv_mod(piv[0], p)
            piv = a[r][c:] = [x * inv % p for x in piv]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i][c:] = ([x ^ y for x, y in zip(a[i][c:], piv)] if p == 2
                            else [(x - f * y) % p for x, y in zip(a[i][c:], piv)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return np.array(a, dtype=np.int64), pivots


def rank(m: np.ndarray, p: int) -> int:
    return len(rref(m, p)[1]) if m.size else 0


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space {x : m @ x = 0}, as columns.

    Empty (cols x 0) result iff m is injective as a linear map.
    """
    cols = m.shape[1]
    r, pivots = rref(m, p)
    reduced = r.tolist()
    piv = set(pivots)
    free = [c for c in range(cols) if c not in piv]
    out = zeros(cols, len(free))
    for k, f in enumerate(free):
        out[f, k] = 1
        for row, c in zip(reduced, pivots):
            out[c, k] = -row[f] % p
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
    x[pivots] = r[: len(pivots), n:]
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

    The pivot columns of `rows` carry an identity, so x is v read there; each
    vector is then checked against x @ rows.
    """
    if v.shape[1] != rows.shape[1]:
        raise ValueError(f"dimension mismatch: vectors {v.shape}, rows {rows.shape}")
    basis = rows.tolist()
    pivots = [next((j for j, y in enumerate(row) if y), 0) for row in basis]
    x = []
    for vec in v.tolist():
        vec = [y % p for y in vec]
        coords = [vec[j] for j in pivots]
        span = [0] * len(vec)
        for c, row in zip(coords, basis):
            if c:
                span = [s + c * y for s, y in zip(span, row)]
        if [s % p for s in span] != vec:
            return None
        x.append(coords)
    return np.array(x, dtype=np.int64).reshape(v.shape[0], len(basis))


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
    return (m.shape, tuple(m.ravel().tolist()))


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]
