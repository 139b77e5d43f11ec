import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurrec import fields as ff
from slow_paths import kronecker_product


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
    i = ff.subspace_intersection(u, v, p)
    assert s.shape[0] + i.shape[0] == ff.rank(u, p) + ff.rank(v, p)
    assert ff.row_space_contains(s, u, p) and ff.row_space_contains(s, v, p)
    assert ff.row_space_contains(u, i, p) and ff.row_space_contains(v, i, p)


def test_quotient_basis_complements():
    amb = ff.eye(3)
    sub = ff.fmat([[1, 1, 0]], 2)
    q = ff.quotient_basis(sub, amb, 2)
    assert q.shape[0] == 2
    full = np.concatenate([sub, q])
    assert ff.rank(full, 2) == 3


def test_kronecker_product_shape_and_values():
    a = ff.fmat([[1, 2]], 3)
    b = ff.fmat([[2], [1]], 3)
    k = kronecker_product(a, b, 3)
    assert k.shape == (2, 2)
    assert np.array_equal(k, ff.fmat([[2, 4], [1, 2]], 3))
