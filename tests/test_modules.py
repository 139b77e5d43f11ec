import pytest

from schurrec import fields as ff
from schurrec.algebras import point_algebra
from schurrec.errors import InputError, UniverseExhausted
from schurrec.modules import (
    Module,
    Morphism,
    build_universe,
    decompose,
    direct_sum,
    ext1_basis,
    hom_basis,
    is_brick,
    is_indecomposable,
    is_injective,
    is_isomorphic,
    is_split,
    regular_module,
    submodule_rows,
)
from conftest import a2_algebra, a3_algebra
from slow_paths import (
    cokernel,
    end_dim,
    image,
    indecomposable_projectives,
    kernel,
    middle_term,
    submodules,
    verify_module,
    zero_map,
)


@pytest.fixture(scope="module")
def u2():
    return build_universe(a2_algebra(), 2, "extensions")


@pytest.fixture(scope="module")
def u3():
    return build_universe(a3_algebra(), 3, "extensions")


def by_dims(u, dims):
    matches = [u.module(i) for i in u.ids if u.module(i).dims == tuple(dims)]
    assert len(matches) == 1
    return matches[0]


# --- universes ------------------------------------------------------------


def test_universe_a2_has_three_indecomposables(u2):
    assert len(u2) == 3
    assert sorted(m.dims for m in u2.modules) == [(0, 1), (1, 0), (1, 1)]


def test_universe_a3_has_six_indecomposables(u3):
    assert len(u3) == 6
    assert sorted(m.dims for m in u3.modules) == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1),
    ]


def test_universe_point_algebra_single_simple():
    u = build_universe(point_algebra(3), 4, "extensions")
    assert len(u) == 1
    assert u.module(0).dims == (1,)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_universe_strategies_agree_type_a(p, n):
    labels = [str(i) for i in range(1, n + 1)]
    from schurrec.algebras import algebra_from_quiver, linear_quiver

    alg = algebra_from_quiver(linear_quiver(labels), None, p)
    ua = build_universe(alg, n, "analytic-typeA")
    ub = build_universe(alg, n, "extensions")
    assert len(ua) == len(ub) == n * (n + 1) // 2
    matched = set()
    for m in ua.modules:
        hits = [j for j in ub.ids if j not in matched and is_isomorphic(m, ub.module(j))]
        assert hits, f"analytic module {m.dims} missing from the extension build"
        matched.add(hits[0])


def test_bound_excludes_large_modules():
    u = build_universe(a2_algebra(), 1, "extensions")
    assert len(u) == 2  # simples only


# --- hom spaces -----------------------------------------------------------


def test_hom_simple_into_projective(u2):
    s3 = by_dims(u2, (0, 1))
    p2 = by_dims(u2, (1, 1))
    homs = hom_basis(s3, p2)
    assert len(homs) == 1
    assert is_injective(homs[0])


def test_hom_projective_onto_simple_socle_vanishes(u2):
    s3 = by_dims(u2, (0, 1))
    p2 = by_dims(u2, (1, 1))
    assert hom_basis(p2, s3) == []


def test_hom_contains_identity(u2):
    for m in u2.modules:
        assert end_dim(m) >= 1


def test_hom_dims_match_cached_table(u3):
    for i in u3.ids:
        for j in u3.ids:
            assert u3.hom_space(i, j).dim == len(hom_basis(u3.module(i), u3.module(j)))


# --- kernels, cokernels, images -------------------------------------------


def test_kernel_of_identity_is_zero(u2):
    m = by_dims(u2, (1, 1))
    k, _ = kernel(Morphism.identity(m))
    assert k.is_zero


def test_cokernel_of_zero_map_is_target(u2):
    m = by_dims(u2, (1, 1))
    z = Module.zero(m.algebra)
    c, proj = cokernel(zero_map(z, m))
    assert c.dims == m.dims
    assert is_isomorphic(c, m)


def test_kernel_of_projection_is_socle(u2):
    p2 = by_dims(u2, (1, 1))
    s2 = by_dims(u2, (1, 0))
    s3 = by_dims(u2, (0, 1))
    proj = hom_basis(p2, s2)[0]
    assert not is_injective(proj)
    k, incl = kernel(proj)
    assert is_isomorphic(k, s3)
    assert is_injective(incl)


def test_image_of_inclusion(u2):
    s3 = by_dims(u2, (0, 1))
    p2 = by_dims(u2, (1, 1))
    f = hom_basis(s3, p2)[0]
    img, incl = image(f)
    assert is_isomorphic(img, s3)
    assert is_injective(incl)


# --- direct sums and decomposition ----------------------------------------


def test_decompose_sum_of_simples(u2):
    s2 = by_dims(u2, (1, 0))
    s3 = by_dims(u2, (0, 1))
    total = direct_sum([s2, s3])
    ids = decompose(total, u2)
    assert sorted(u2.module(i).dims for i in ids) == [(0, 1), (1, 0)]


def test_decompose_regular_module_a2(u2):
    reg = regular_module(u2.algebra)
    ids = decompose(reg, u2)
    assert sorted(u2.module(i).dims for i in ids) == [(0, 1), (1, 1)]


def test_decompose_indecomposable_is_singleton(u3):
    for i in u3.ids:
        assert decompose(u3.module(i), u3) == (i,)


def test_decompose_outside_universe_raises(u2):
    small = build_universe(u2.algebra, 1, "extensions")
    p2 = by_dims(u2, (1, 1))
    with pytest.raises(UniverseExhausted):
        decompose(p2, small)


def test_decompose_permuted_blocks_same_multiset(u2):
    s2 = by_dims(u2, (1, 0))
    p2 = by_dims(u2, (1, 1))
    a = direct_sum([s2, p2])
    b = direct_sum([p2, s2])
    assert decompose(a, u2) == decompose(b, u2)


# --- iso / indecomposability / brick ---------------------------------------


def test_isomorphic_reflexive_and_negative(u2):
    s2, s3 = by_dims(u2, (1, 0)), by_dims(u2, (0, 1))
    assert is_isomorphic(s2, s2)
    assert not is_isomorphic(s2, s3)


def test_isomorphic_after_base_change():
    alg = a3_algebra(p=3)
    dims = (1, 1, 1)
    arrows = {a: ff.eye(1) for a in alg.arrows}
    m1 = Module(alg, dims, arrows, check=True)
    scaled = {a: ff.fmat([[2]], 3) for a in alg.arrows}
    m2 = Module(alg, dims, scaled, check=True)
    assert is_isomorphic(m1, m2)


def test_indecomposables(u2):
    s2, s3, p2 = by_dims(u2, (1, 0)), by_dims(u2, (0, 1)), by_dims(u2, (1, 1))
    assert is_indecomposable(s2) and is_indecomposable(p2)
    total = direct_sum([s2, s3])
    assert not is_indecomposable(total)
    with pytest.raises(InputError):
        is_indecomposable(Module.zero(u2.algebra))


def test_bricks(u2, u3):
    for u in (u2, u3):
        for i in u.ids:
            assert is_brick(u.module(i))
    s2 = by_dims(u2, (1, 0))
    double = direct_sum([s2, s2])
    assert not is_brick(double)


# --- Ext^1 and middle terms -------------------------------------------------


def test_ext_simple_top_by_socle(u2):
    s2, s3, p2 = by_dims(u2, (1, 0)), by_dims(u2, (0, 1)), by_dims(u2, (1, 1))
    ext = ext1_basis(s2, s3)
    assert ext.dim == 1
    ses = middle_term(ext, ext.basis[0])
    assert ses.validate()
    assert is_isomorphic(ses.middle, p2)
    assert not is_split(ses)


def test_ext_projective_vanishes(u2):
    s2, s3 = by_dims(u2, (1, 0)), by_dims(u2, (0, 1))
    assert ext1_basis(s3, s2).dim == 0


def test_zero_cocycle_splits(u2):
    s2, s3 = by_dims(u2, (1, 0)), by_dims(u2, (0, 1))
    ext = ext1_basis(s2, s3)
    ses = middle_term(ext, ext.element([0]))
    assert ses.validate()
    assert is_split(ses)
    total = direct_sum([s3, s2])
    assert is_isomorphic(ses.middle, total)


def test_middle_sum_consistency(u3):
    # every middle term has the dimension vector of sub + quot
    for zi in u3.ids:
        for xi in u3.ids:
            ext = u3.ext_space(zi, xi)
            for c in [ext.element([0] * ext.dim), *ext.all_cocycles()]:
                ses = middle_term(ext, c)
                assert ses.validate()
                want = tuple(
                    a + b for a, b in zip(u3.module(zi).dims, u3.module(xi).dims)
                )
                assert ses.middle.dims == want


def test_nonzero_cocycles_are_nonsplit(u3):
    for zi in u3.ids:
        for xi in u3.ids:
            ext = u3.ext_space(zi, xi)
            for c in ext.all_cocycles():
                assert not is_split(middle_term(ext, c))


# --- submodules --------------------------------------------------------------


def test_submodules_of_simple(u2):
    s2 = by_dims(u2, (1, 0))
    subs = submodule_rows(s2)
    assert len(subs) == 2  # 0 and the module itself


def test_submodules_of_p2(u2):
    p2 = by_dims(u2, (1, 1))
    s3 = by_dims(u2, (0, 1))
    subs = submodules(p2)
    assert len(subs) == 3
    proper = [s for s, _ in subs if 0 < s.total_dim < 2]
    assert len(proper) == 1
    assert is_isomorphic(proper[0], s3)


def test_submodules_of_uniserial_a3(u3):
    m = by_dims(u3, (1, 1, 1))
    subs = submodules(m)
    # uniserial: 0 c 3 c 2/3 c 1/2/3
    assert [s.total_dim for s, _ in subs] == [0, 1, 2, 3]
    assert [s.dims for s, _ in subs] == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)
    ]


def test_projectives(u2, u3):
    projs = indecomposable_projectives(u2.algebra)
    assert sorted(p.total_dim for p in projs) == [1, 2]
    projs3 = indecomposable_projectives(u3.algebra)
    assert sorted(p.total_dim for p in projs3) == [1, 2, 3]


def test_module_verify_full_table(u3):
    for i in u3.ids:
        assert verify_module(u3.module(i))


def test_rejects_relation_violation(loop_sq):
    x = loop_sq.arrows[0]
    with pytest.raises(InputError):
        Module(loop_sq, (1,), {x: ff.eye(1)}, check=True)
    m = Module(loop_sq, (2,), {x: ff.fmat([[0, 1], [0, 0]], 2)}, check=True)
    assert verify_module(m)
    assert is_indecomposable(m)
