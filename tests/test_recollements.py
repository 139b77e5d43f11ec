import gc
import random
import weakref

import numpy as np
import pytest

from schurrec import census
from schurrec import fields as ff
from schurrec.algebras import IdempotentSpec, point_algebra, triangular_matrix_algebra, Bimodule
from schurrec.census import _exactness_one, _fuzz_instance, random_triangular_instance
from schurrec.errors import InputError
from schurrec.modules import (
    DEFAULT_THRESHOLDS,
    HomSpace,
    Module,
    Morphism,
    Thresholds,
    build_universe,
    hom_basis,
    is_isomorphic,
)
from schurrec.recollements import (
    FUNCTOR_TAGS,
    _transport,
    build_recollement,
    glue_bricks,
    glue_subcategory,
    restrict,
    verify_theorem,
)
from schurrec.subcats import (
    filt_closure,
    id_mask,
    is_cofinally_closed,
    is_left_schur,
    is_monobrick,
    is_semibrick,
    is_torsion_free,
    is_wide,
    mask_ids,
)
from conftest import a2_algebra, a3_algebra, memo_tables
from slow_paths import theta, verify_module


@pytest.fixture(scope="module")
def rec():
    alg = a3_algebra()
    return build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)


def uid(u, dims):
    hits = [i for i in u.ids if u.module(i).dims == tuple(dims)]
    assert len(hits) == 1
    return hits[0]


def test_edge_algebras(rec):
    assert rec.b_alg.dim == 3 and rec.b_alg.nv == 2          # kA2 on vertices 2, 3
    assert rec.c_alg.dim == 1                                 # the corner field
    assert len(rec.u_a) == 6 and len(rec.u_b) == 3 and len(rec.u_c) == 1


def test_i_star_lands_off_the_corner(rec):
    for xid in rec.u_b.ids:
        xa = rec.apply("i_star", rec.u_b.module(xid))
        assert xa.dims[0] == 0
        assert rec.apply("j_upper", xa).total_dim == 0


def test_unit_counit_isomorphisms(rec):
    for xid in rec.u_b.ids:
        x = rec.u_b.module(xid)
        xa = rec.apply("i_star", x)
        assert is_isomorphic(rec.apply("i_upper", xa), x)
        assert is_isomorphic(rec.apply("i_shriek", xa), x)
    for nid in rec.u_c.ids:
        n = rec.u_c.module(nid)
        assert is_isomorphic(rec.apply("j_upper", rec.apply("j_lower_shriek", n)), n)
        assert is_isomorphic(rec.apply("j_upper", rec.apply("j_star", n)), n)
        assert rec.apply("i_upper", rec.apply("j_lower_shriek", n)).total_dim == 0
        assert rec.apply("i_shriek", rec.apply("j_star", n)).total_dim == 0


def test_j_functors_on_the_corner_simple(rec):
    n = rec.u_c.module(0)
    jl = rec.apply("j_lower_shriek", n)
    js = rec.apply("j_star", n)
    jm = rec.apply("j_intermediate", n)
    assert jl.dims == (1, 1, 1)   # the projective cover 1/2/3
    assert js.dims == (1, 0, 0)   # the simple at the corner vertex
    assert is_isomorphic(jm, js)  # i^! exact forces j_!* = j_*


def test_functors_kill_zero(rec):
    zeros = {
        "i_star": Module.zero(rec.b_alg),
        "i_upper": Module.zero(rec.a), "i_shriek": Module.zero(rec.a),
        "j_upper": Module.zero(rec.a),
        "j_lower_shriek": Module.zero(rec.c_alg),
        "j_star": Module.zero(rec.c_alg), "j_intermediate": Module.zero(rec.c_alg),
    }
    for tag in FUNCTOR_TAGS:
        assert rec.apply(tag, zeros[tag]).total_dim == 0


def test_functor_images_verify_as_modules(rec):
    for tag in FUNCTOR_TAGS:
        u = rec.universe_of(tag)
        for i in u.ids:
            image = rec.apply(tag, u.module(i))
            assert verify_module(image)
            assert image.algebra.same_as(rec.target_universe(tag).algebra)


def test_i_shriek_of_universe_members(rec):
    # annihilator of the corner ideal: strips the corner row of the support
    m123 = rec.u_a.module(uid(rec.u_a, (1, 1, 1)))
    got = rec.apply("i_shriek", m123)
    assert got.dims == (1, 1)  # the module 2/3 over B
    m12 = rec.u_a.module(uid(rec.u_a, (1, 1, 0)))
    assert rec.apply("i_shriek", m12).dims == (1, 0)


def test_exactness_certificate_both_sides():
    alg = a3_algebra()
    r1 = build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
    ok1, cert1 = r1.is_i_shriek_exact()
    assert ok1 and cert1.structural and cert1.direct
    r2 = build_recollement(alg, IdempotentSpec(alg, (1, 2)), bound=3)
    ok2, cert2 = r2.is_i_shriek_exact()
    assert not ok2
    assert cert2.witness is not None


def test_split_recollement_is_exact():
    b = point_algebra(2, "y")
    c = point_algebra(2, "z")
    alg, data = triangular_matrix_algebra(b, c, Bimodule(0))
    r = build_recollement(alg, data.e, bound=2)
    ok, _ = r.is_i_shriek_exact()
    assert ok


def test_axiom_report(rec):
    report = rec.axiom_report()
    assert report["ok"], report["counterexamples"]


def test_exactness_consequences(rec):
    report = rec.exactness_consequences_report()
    assert report["hypothesis_exact"]
    assert report["ok"], report["counterexamples"]


def test_memoised_recollement_keeps_no_reference_to_itself():
    """Without a cycle through the recollements, dropping the two sides of
    one algebra frees them, the A-universe they share and the two edge
    universes kept on it at once, after every law has filled their caches
    with images, image ids and the exactness certificates, and the
    universes' with Hom spaces, brick verdicts, submodule sequences and
    decompositions."""
    gc.disable()
    try:
        alg = a3_algebra()
        r = build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
        other = build_recollement(alg, IdempotentSpec(alg, (1, 2)), bound=3, universe=r.u_a)
        assert other.u_a is r.u_a
        # A/AeA at vertex 1 is eAe at vertices 2, 3 and the other way round
        assert other.u_c is r.u_b and other.u_b is r.u_c
        for law in ("3.2", "3.3", "3.4", "3.5"):
            assert verify_theorem(r, law)["ok"]
        assert r.axiom_report()["ok"]
        assert r.exactness_consequences_report()["ok"]
        other.is_i_shriek_exact()
        assert {"apply_with_data", "image_ids", "_compute_exactness"} <= memo_tables(r)
        assert {"apply_with_data", "_compute_exactness"} <= memo_tables(other)
        assert {"hom_space", "_is_brick", "submodule_sequences", "_decomposition",
                "edge_universe"} <= memo_tables(r.u_a)
        assert {"_decomposition", "_member_ids"} <= memo_tables(r.u_b)
        gone = [weakref.ref(x) for x in (r, other, r.u_a, r.u_b, r.u_c)]
        del r, other
        assert all(ref() is None for ref in gone)
    finally:
        gc.enable()


def test_shared_universe_must_match_algebra_bound_and_thresholds():
    alg = a3_algebra()
    e = IdempotentSpec(alg, (0,))
    for wrong in (build_universe(a2_algebra(), 3), build_universe(alg, 2),
                  build_universe(alg, 3, thresholds=Thresholds(scan_limit=2**10))):
        with pytest.raises(InputError):
            build_recollement(alg, e, bound=3, universe=wrong)
    u = build_universe(alg, 3, thresholds=Thresholds(scan_limit=2**10))
    assert build_recollement(alg, e, bound=3, thresholds=u.thresholds, universe=u).u_a is u


def test_exactness_sides_agree_with_a_shared_or_an_own_universe(monkeypatch):
    """Both sides of 20 exactness instances give the same entry whether they
    share one A-universe or each builds its own."""
    real = census.build_recollement

    def sweep(share: bool) -> list[dict]:
        built = []

        def recording(*args, universe=None, **kwargs):
            built.append(real(*args, universe=universe if share else None, **kwargs))
            return built[-1]

        monkeypatch.setattr(census, "build_recollement", recording)
        entries = [_fuzz_instance((_exactness_one, seed, 2, 3, DEFAULT_THRESHOLDS))
                   for seed in range(20260810, 20260830)]
        sides: dict[int, list] = {}
        for r in built:
            sides.setdefault(id(r.a), []).append(r.u_a)
        both = [us for us in sides.values() if len(us) == 2]
        assert len(both) >= 10 and all((us[0] is us[1]) == share for us in both)
        return entries

    assert sweep(share=True) == sweep(share=False)


def test_simple_gluing_report(rec):
    assert rec.simple_gluing_report()["ok"]


def test_theta_naturality(rec):
    # theta is natural: theta_dst ∘ j_! f == j_* f ∘ theta_src ... in row
    # convention: j_!f then theta_dst equals theta_src then j_*f
    rng = random.Random(3)
    c = rec.c_alg
    n = rec.u_c.module(0)
    for _ in range(5):
        hom = HomSpace(n, n)
        f = hom.element([rng.randrange(2) for _ in range(hom.dim)])
        th_src, th_dst = theta(rec, f.src), theta(rec, f.dst)
        lhs = rec.apply_to_morphism("j_lower_shriek", f).then(th_dst)
        rhs = th_src.then(rec.apply_to_morphism("j_star", f))
        assert all(np.array_equal(a, b) for a, b in zip(lhs.mats, rhs.mats))


@pytest.fixture(scope="module")
def recs():
    """kA3 at e = (0), where i^! is exact, and at (1, 2) and (1), where it is not,
    over F_2 and F_3, where signs show; and two triangular algebras over F_3 whose
    modules reach dimension 2 at a vertex and whose corner has two vertices."""
    out = [build_recollement(alg, IdempotentSpec(alg, e), bound=3)
           for alg in (a3_algebra(2), a3_algebra(3)) for e in ((0,), (1, 2), (1,))]
    for seed in (12, 13):
        alg, data = random_triangular_instance(random.Random(seed), 3)
        out.append(build_recollement(alg, data.e, bound=3))
    return out


def same_maps(f, g):
    return all(np.array_equal(a, b) for a, b in zip(f.mats, g.mats))


def basis_maps(u):
    """Every hom-basis element between universe members, as (i, j, f)."""
    return [(i, j, f) for i in u.ids for j in u.ids
            for f in hom_basis(u.module(i), u.module(j))]


def test_transport_preserves_identities(recs):
    for r in recs:
        for tag in FUNCTOR_TAGS:
            u = r.universe_of(tag)
            for i in u.ids:
                m = u.module(i)
                got = r.apply_to_morphism(tag, Morphism.identity(m))
                assert same_maps(got, Morphism.identity(r.apply(tag, m))), (r.e.vertices, tag, i)


def test_functoriality_of_transport(recs):
    # F(f then g) == F(f) then F(g) for every functor and composable basis pair
    for r in recs:
        for tag in FUNCTOR_TAGS:
            maps = basis_maps(r.universe_of(tag))
            pairs = [(f, g) for _, j, f in maps for j2, _, g in maps if j2 == j]
            assert pairs
            for f, g in pairs:
                lhs = r.apply_to_morphism(tag, f.then(g))
                rhs = r.apply_to_morphism(tag, f).then(r.apply_to_morphism(tag, g))
                assert same_maps(lhs, rhs), (r.e.vertices, tag)


def test_unit_and_counit_are_natural(recs):
    for r in recs:
        for i, j, f in basis_maps(r.u_a):
            m, m2 = r.u_a.module(i), r.u_a.module(j)
            js_f = r.apply_to_morphism("j_star", r.apply_to_morphism("j_upper", f))
            assert same_maps(r.unit_out_of(m).then(js_f), f.then(r.unit_out_of(m2)))
            is_f = r.apply_to_morphism("i_star", r.apply_to_morphism("i_shriek", f))
            assert same_maps(is_f.then(r.counit_into(m2)), r.counit_into(m).then(f))


def test_sub_transport_checks_every_source_block_with_rows():
    """The sub step maps a source block without rows to an empty block, and
    checks every other block against the target rows, an empty target too:
    a map leaving the submodule raises InputError there."""
    p = 2
    src = (("sub", (ff.fmat([[1, 0]], p), ff.zeros(0, 1))),)
    dst = (("sub", (ff.zeros(0, 2), ff.fmat([[1]], p))),)
    kills = [ff.fmat([[0, 0], [1, 1]], p), ff.eye(1)]
    got = _transport(src, dst, kills, p)
    assert [m.shape for m in got] == [(1, 0), (0, 1)]
    with pytest.raises(InputError, match="leaves it"):
        _transport(src, dst, [ff.eye(2), ff.eye(1)], p)


# --- gluing -----------------------------------------------------------------


def b_ids(rec, *dimvecs):
    return tuple(uid(rec.u_b, d) for d in dimvecs)


def b_mask(rec, *dimvecs):
    return id_mask(b_ids(rec, *dimvecs))


def whole(u):
    return id_mask(u.ids)


def test_glue_whole_categories(rec):
    e_y, e_z = whole(rec.u_b), whole(rec.u_c)
    assert glue_subcategory(rec, e_y, e_z, "schur") == whole(rec.u_a)
    assert glue_subcategory(rec, e_y, e_z, "torf") == whole(rec.u_a)


def test_glue_zeros(rec):
    assert glue_subcategory(rec, 0, 0, "schur") == 0


def test_glue_against_filt_of_transport(rec):
    # gluing (add{3, 2/3}, {0}) equals the Filt of the transported monobrick
    ids_y = b_ids(rec, (0, 1), (1, 1))
    glued = glue_subcategory(rec, id_mask(ids_y), 0, "schur")
    transported = [rec.image_ids("i_star", i)[0] for i in ids_y]
    assert glued == filt_closure(rec.u_a, id_mask(transported))
    assert is_left_schur(rec.u_a, glued)


def test_glue_torf_flag(rec):
    glued = glue_subcategory(rec, b_mask(rec, (0, 1), (1, 1)), 0, "torf")
    assert is_torsion_free(rec.u_a, glued)


def test_glue_wide_flag(rec):
    glued = glue_subcategory(rec, b_mask(rec, (1, 1)), whole(rec.u_c), "wide")
    assert is_wide(rec.u_a, glued)


def test_glue_monobrick_simples(rec):
    glued = glue_bricks(rec, b_mask(rec, (1, 0), (0, 1)), id_mask((0,)))
    assert len(mask_ids(glued)) == 3
    assert is_monobrick(rec.u_a, glued)
    assert filt_closure(rec.u_a, glued) == whole(rec.u_a)


def test_glue_monobrick_cc_variant(rec):
    glued = glue_bricks(rec, b_mask(rec, (0, 1), (1, 1)), id_mask((0,)), "cc-monobrick")
    assert is_cofinally_closed(rec.u_a, glued)


def test_glue_monobrick_cc_rejects_non_cc_input(rec):
    m_y = b_mask(rec, (1, 1))  # {2/3} is not cofinally closed
    with pytest.raises(InputError):
        glue_bricks(rec, m_y, 0, "cc-monobrick")


def test_glue_semibrick(rec):
    glued = glue_bricks(rec, b_mask(rec, (1, 0), (0, 1)), id_mask((0,)), "semibrick")
    assert is_semibrick(rec.u_a, glued)


def test_glue_requires_certificate():
    alg = a3_algebra()
    r2 = build_recollement(alg, IdempotentSpec(alg, (1, 2)), bound=3)
    whole_y, whole_z = whole(r2.u_b), whole(r2.u_c)
    with pytest.raises(InputError):
        glue_subcategory(r2, whole_y, whole_z, "schur")
    unverified = glue_subcategory(r2, whole_y, whole_z, "schur", allow_unverified=True)
    assert unverified == whole(r2.u_a)
    # torsion-free gluing never needs the certificate
    assert glue_subcategory(r2, whole_y, whole_z, "torf") == whole(r2.u_a)


def test_glue_rejects_unknown_law_and_kind(rec):
    with pytest.raises(InputError):
        glue_subcategory(rec, 0, 0, "monobrick")
    with pytest.raises(InputError):
        glue_bricks(rec, 0, 0, "schur")


def test_restrict_roundtrip(rec):
    assert restrict(rec, whole(rec.u_a)) == (whole(rec.u_b), whole(rec.u_c))
    assert restrict(rec, 0) == (0, 0)


@pytest.mark.parametrize("law", ["3.2", "3.3", "3.4", "3.5"])
def test_verify_theorem_on_example(rec, law):
    report = verify_theorem(rec, law)
    assert report["ok"], report["counterexamples"]
    assert report["pairs_checked"] > 0
    assert not report.get("skipped")
