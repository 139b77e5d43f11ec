import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurrec import fields as ff
from slow_paths import (
    express_in_rows,
    kronecker_product,
    quotient_basis,
    row_kernel_by_transpose,
    subspace_intersection,
)

PRIMES = [2, 3, 5, 7]


def mats(p, max_dim=4):
    dims = st.integers(min_value=0, max_value=max_dim)
    return dims.flatmap(
        lambda r: dims.flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(r, c))
        )
    )


def test_rref_identity_f2():
    m = ff.eye(2)
    r, piv = ff.rref(m, 2)
    assert np.array_equal(r, m)
    assert piv == [0, 1]


def test_rref_rank_one_f2():
    m = ff.fmat([[1, 1], [1, 1]], 2)
    r, piv = ff.rref(m, 2)
    assert np.array_equal(r, ff.fmat([[1, 1], [0, 0]], 2))
    assert piv == [0]


def test_rref_mod5_hand_reduction():
    # [[2,4],[1,2]] over F_5 row-reduces to [[1,2],[0,0]] with pivot column 0
    m = ff.fmat([[2, 4], [1, 2]], 5)
    r, piv = ff.rref(m, 5)
    assert np.array_equal(r, ff.fmat([[1, 2], [0, 0]], 5))
    assert piv == [0]


def test_kernel_zero_matrix():
    k = ff.kernel_basis(ff.zeros(2, 3), 2)
    assert k.shape == (3, 3)


def test_kernel_identity_empty():
    assert ff.kernel_basis(ff.eye(3), 3).shape == (3, 0)


def test_kernel_sum_f2():
    # x + y = 0 over F_2 has kernel spanned by (1, 1)
    k = ff.kernel_basis(ff.fmat([[1, 1]], 2), 2)
    assert k.shape == (2, 1)
    assert np.array_equal(k[:, 0], np.array([1, 1]))


def test_solve_identity():
    b = ff.fmat([[1], [2]], 3)
    assert np.array_equal(ff.solve(ff.eye(2), b, 3), b)


def test_solve_no_solution():
    assert ff.solve(ff.fmat([[0]], 2), ff.fmat([[1]], 2), 2) is None


def test_solve_mod3_back_substitution():
    a = ff.fmat([[1, 1], [0, 1]], 3)
    b = ff.fmat([[2], [1]], 3)
    x = ff.solve(a, b, 3)
    assert np.array_equal(x, ff.fmat([[1], [1]], 3))
    assert np.array_equal(ff.mul(a, x, 3), b)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        ff.solve(ff.zeros(2, 2), ff.zeros(3, 1), 2)


def test_empty_matrices_behave_as_zero_maps():
    a = ff.zeros(0, 3)
    assert ff.rank(a, 2) == 0
    assert ff.kernel_basis(a, 2).shape == (3, 3)
    assert ff.mul(ff.zeros(2, 0), ff.zeros(0, 3), 5).shape == (2, 3)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (2, 0)])
def test_empty_blocks_are_answered_without_elimination(rows, cols, monkeypatch):
    """A matrix with no entries has the row space zeros(0, cols), the left
    kernel eye(rows) and rank 0, and none of the three row-reduces it."""
    monkeypatch.setattr(ff, "rref", lambda m, p: pytest.fail("rref on an empty block"))
    m = ff.zeros(rows, cols)
    basis, kern = ff.row_space_basis(m, 3), ff.row_kernel(m, 3)
    assert basis.shape == (0, cols) and basis.dtype == np.int64
    assert np.array_equal(kern, ff.eye(rows)) and kern.dtype == np.int64
    assert ff.rank(m, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_rank_nullity(p, data):
    m = data.draw(mats(p))
    assert ff.rank(m, p) + ff.kernel_basis(m, p).shape[1] == m.shape[1]


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_rref_idempotent(p, data):
    m = data.draw(mats(p))
    r1, piv1 = ff.rref(m, p)
    r2, piv2 = ff.rref(r1, p)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_solve_cross_check_against_rank(p, data):
    a = data.draw(mats(p))
    b = data.draw(mats(p, max_dim=2).filter(lambda x: True))
    if b.shape[0] != a.shape[0]:
        b = np.zeros((a.shape[0], 1), dtype=np.int64)
    x = ff.solve(a, b, p)
    aug = np.concatenate([a, b], axis=1)
    if x is None:
        assert ff.rank(aug, p) > ff.rank(a, p)
    else:
        assert np.array_equal(ff.mul(a, x, p), b % p)
        assert ff.rank(aug, p) == ff.rank(a, p)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_subspace_sum_and_intersection_dims(p, data):
    u = data.draw(mats(p, 3))
    v = data.draw(mats(p, 3))
    if u.shape[1] != v.shape[1]:
        v = np.zeros((v.shape[0], u.shape[1]), dtype=np.int64)
    s = ff.subspace_sum(u, v, p)
    i = subspace_intersection(u, v, p)
    assert s.shape[0] + i.shape[0] == ff.rank(u, p) + ff.rank(v, p)
    assert contains(s, u, p) and contains(s, v, p)
    assert contains(u, i, p) and contains(v, i, p)


def contains(u, v, p):
    """rowspace(v) ⊆ rowspace(u), by solving for coordinates."""
    return v.shape[0] == 0 or express_in_rows(v, u, p) is not None


def test_quotient_basis_complements():
    amb = ff.eye(3)
    sub = ff.fmat([[1, 1, 0]], 2)
    q = quotient_basis(sub, amb, 2)
    assert q.shape[0] == 2
    full = np.concatenate([sub, q])
    assert ff.rank(full, 2) == 3


def test_complement_of_a_line_in_f2_cubed():
    chosen, proj = ff.complement(ff.fmat([[1, 1, 0]], 2), range(3), 2)
    assert chosen == [0, 2]
    # e_1 = e_0 + (1, 1, 0), so its class is that of e_0
    assert np.array_equal(proj, ff.fmat([[1, 0], [1, 0], [0, 1]], 2))


@st.composite
def subspace_and_order(draw, p):
    sub = draw(mats(p))
    n = sub.shape[1]
    order = draw(st.permutations(range(n)))
    keep = draw(st.integers(0, n))
    return sub, list(order[:keep])


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_complement_matches_greedy_oracle(p, data):
    sub, order = data.draw(subspace_and_order(p))
    n = sub.shape[1]
    chosen, proj = ff.complement(sub, order, p)
    # the oracle walks sub's rows (which never grow the span) and then the
    # unit vectors of `order`; columns outside `order` are never candidates
    units = ff.eye(n)[order]
    assert np.array_equal(ff.eye(n)[chosen], quotient_basis(sub, np.concatenate([sub, units]), p))
    assert proj.shape == (n, len(chosen))
    if ff.rank(sub, p) + len(chosen) == n:
        full = np.concatenate([ff.row_space_basis(sub, p), ff.eye(n)[chosen]])
        inv = ff.solve(full, ff.eye(n), p)
        assert np.array_equal(proj, inv[:, full.shape[0] - len(chosen):])


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_row_kernel_matches_transpose_oracle(p, data):
    m = data.draw(mats(p))
    k = ff.row_kernel(m, p)
    assert np.array_equal(k, row_kernel_by_transpose(m, p))
    assert k.shape == (m.shape[0] - ff.rank(m, p), m.shape[0])


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_coordinates_match_solve_oracle(p, data):
    rows = ff.row_space_basis(data.draw(mats(p)), p)
    n = rows.shape[1]
    k = data.draw(st.integers(0, 3))
    # half the draws stay in the span, the rest are arbitrary vectors
    coeffs = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=k * rows.shape[0],
                                         max_size=k * rows.shape[0])),
                      dtype=np.int64).reshape(k, rows.shape[0])
    inside = ff.mul(coeffs, rows, p)
    noise = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n)),
                     dtype=np.int64).reshape(k, n)
    for v in (inside, (inside + noise) % p):
        x = ff.coordinates(v, rows, p)
        want = express_in_rows(v, rows, p)
        if want is None:
            assert x is None
        else:
            assert np.array_equal(x, want)
    assert np.array_equal(ff.coordinates(inside, rows, p), coeffs)


def test_coordinates_reject_a_vector_outside_the_span():
    rows = ff.fmat([[1, 0, 2], [0, 1, 1]], 3)
    assert np.array_equal(ff.coordinates(ff.fmat([[2, 1, 2]], 3), rows, 3), ff.fmat([[2, 1]], 3))
    assert ff.coordinates(ff.fmat([[0, 0, 1]], 3), rows, 3) is None
    assert ff.coordinates(ff.fmat([[0, 0, 1]], 3), ff.zeros(0, 3), 3) is None
    assert ff.coordinates(ff.zeros(2, 0), ff.zeros(0, 0), 3).shape == (2, 0)


def test_kronecker_product_shape_and_values():
    a = ff.fmat([[1, 2]], 3)
    b = ff.fmat([[2], [1]], 3)
    k = kronecker_product(a, b, 3)
    assert k.shape == (2, 2)
    assert np.array_equal(k, ff.fmat([[2, 4], [1, 2]], 3))
