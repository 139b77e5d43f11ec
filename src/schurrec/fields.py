"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
arithmetic is exact; there is no floating point anywhere in the package.
0 x n and n x 0 matrices are legal and behave as zero maps.

Two conventions coexist and are named explicitly:
  * column convention: solve/kernel_basis treat vectors as columns (m @ x = b);
  * row convention:    the module layer keeps elements as row vectors, so it
    uses row_kernel / row_space helpers (spans are given by matrix rows).

Elimination is deterministic Gaussian elimination with first-nonzero
pivoting, so every output is byte-for-byte reproducible.
"""

from __future__ import annotations

import numpy as np


def check_prime(p: int) -> int:
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise ValueError(f"characteristic must be prime, got {p}")
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
    return len(rref(m, p)[1])


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
    r, pivots = rref(m, p)
    return r[: len(pivots)]


def image_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the column space, as columns (canonical via RREF of m^T)."""
    return row_space_basis(m.T, p).T


def row_kernel(m: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {v : v @ m = 0} (canonical form)."""
    k = kernel_basis(m.T, p).T
    return row_space_basis(k, p)


def row_solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One particular x with x @ a = b (row convention), or None."""
    xt = solve(a.T, b.T, p)
    return None if xt is None else xt.T


def express_in_rows(v: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray | None:
    """Coordinates x with x @ basis = v, or None if v is not in the row space."""
    return row_solve(basis, v, p)


def subspace_sum(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of rowspace(u) + rowspace(v)."""
    if u.shape[1] != v.shape[1]:
        raise ValueError("ambient dimensions differ")
    return row_space_basis(np.concatenate([u, v]), p)


def subspace_intersection(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of rowspace(u) ∩ rowspace(v).

    Zassenhaus-free: solve x @ u = y @ v by the kernel of [u ; -v] stacked.
    """
    if u.shape[1] != v.shape[1]:
        raise ValueError("ambient dimensions differ")
    stacked = np.concatenate([u, (-v) % p])
    k = row_kernel(stacked, p)  # rows (x | y) with x@u = y@v
    xs = k[:, : u.shape[0]]
    return row_space_basis(mul(xs, u, p), p)


def quotient_basis(sub: np.ndarray, ambient: np.ndarray, p: int) -> np.ndarray:
    """Rows of `ambient` completing `sub` to a basis of rowspace(ambient).

    Complement of the subspace inside the containing space; requires
    rowspace(sub) ⊆ rowspace(ambient).
    """
    current = row_space_basis(sub, p)
    target = rank(ambient, p)
    out_rows = []
    for i in range(ambient.shape[0]):
        cand = ambient[i : i + 1]
        grown = row_space_basis(np.concatenate([current, cand]), p)
        if grown.shape[0] > current.shape[0]:
            out_rows.append(cand)
            current = grown
        if current.shape[0] == target:
            break
    if current.shape[0] != target:
        raise ValueError("sub is not contained in ambient")
    if not out_rows:
        return zeros(0, ambient.shape[1])
    return np.concatenate(out_rows)


def row_space_contains(u: np.ndarray, v: np.ndarray, p: int) -> bool:
    """True iff rowspace(v) ⊆ rowspace(u)."""
    if v.shape[0] == 0:
        return True
    return row_solve(u, v, p) is not None


def row_spaces_equal(u: np.ndarray, v: np.ndarray, p: int) -> bool:
    return row_space_contains(u, v, p) and row_space_contains(v, u, p)


def signature(m: np.ndarray) -> tuple:
    """Hashable canonical form for an already-canonical matrix."""
    return (m.shape, tuple(int(x) for x in m.ravel()))


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]
