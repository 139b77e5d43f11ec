"""Fast paths of the F_p kernel, the universe builder, the census test of
summand-closure and the algebra constructions against their slow oracles."""

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurrec import fields as ff
from schurrec import modules
from schurrec.algebras import (
    Algebra,
    Bimodule,
    IdempotentSpec,
    Quiver,
    algebra_from_quiver,
    corner_algebra,
    linear_quiver,
    quotient_by_idempotent_ideal,
    validate_bimodule,
)
from schurrec.census import (
    all_left_schur,
    all_monobricks,
    all_torf,
    all_wide,
    fuzz_exactness_sweep,
    fuzz_theorem_sweep,
    random_bimodule,
    random_edge_algebra,
    random_triangular_instance,
)
from schurrec.errors import BudgetExceeded, InputError, UniverseExhausted
from schurrec.modules import (
    DEFAULT_THRESHOLDS,
    IndecUniverse,
    Module,
    Thresholds,
    _hom_system,
    build_universe,
    decompose,
    direct_sum,
    ext1_basis,
    hom_basis,
    is_isomorphic,
    is_isomorphic_to_indecomposable,
    is_isomorphism,
    is_split,
    is_surjective,
    isomorphism_from_indecomposable,
    satisfies_relations,
    submodule_rows,
    submodule_sequences,
)
from schurrec.recollements import (
    _sub,
    build_recollement,
    glue_subcategory,
    restrict,
    verify_theorem,
)
from schurrec.storage import load_algebra_file
from schurrec.subcats import (
    all_bricks,
    filt_closure,
    hom_element_kernels,
    hom_profile,
    id_mask,
    mask_ids,
    require_bricks,
    sim,
    submodule_decomps,
    verify_bijection,
)
from conftest import tree_quiver
import slow_paths
from slow_paths import (
    action_tuples,
    block_diagonal,
    brick_ids_fresh,
    brute_force_per_tuple,
    coordinates_numpy,
    decompose_split_first,
    dim_vectors,
    direct_sum_with_maps,
    exactness_by_presentation,
    ext1_by_presentation,
    glue_subcategory_by_sets,
    restrict_by_sets,
    verify_theorem_by_sets,
    eye_numpy,
    hom_element_kernels_fresh,
    hom_profile_fresh,
    hom_system_kron,
    ideal_of_idempotent,
    is_isomorphic_scan,
    kernel_basis_numpy,
    middle_term,
    middle_term_by_pushout,
    quotient_by_ideal_fixpoint,
    rref_numpy,
    satisfies_relations_loop,
    signature_numpy,
    submodule_rows_brute,
    submodule_rows_by_joins,
    submodule_sequences_per_call,
    summand_audit_by_search,
    theta,
    torf_by_left_schur_filter,
)

BOUND = 3
SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def kronecker(p):
    return algebra_from_quiver(Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2"))), None, p)


def loop_square_zero(p):
    return algebra_from_quiver(Quiver(("1",), (("x", "1", "1"),)), [[(1, ["x", "x"])]], p)


def d4(p):
    q = Quiver(("1", "2", "3", "4"), (("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")))
    return algebra_from_quiver(q, None, p)


ALGEBRAS = {
    "kA3": lambda: algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, 2),
    "kronecker_p2": lambda: kronecker(2),
    "kronecker_p3": lambda: kronecker(3),
    "loop_p2": lambda: loop_square_zero(2),
    "loop_p3": lambda: loop_square_zero(3),
    "d4_p3": lambda: d4(3),
    **{f"triangular_{s}": (lambda s=s: random_triangular_instance(random.Random(s), 2)[0])
       for s in range(6)},
}


def commutative_square(p):
    q = Quiver(("1", "2", "3", "4"),
               (("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")))
    return algebra_from_quiver(q, [[(1, ["a", "b"]), (-1, ["c", "d"])]], p)


def two_cycle_zero(p):
    q = Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    return algebra_from_quiver(q, [[(1, ["a", "b"])], [(1, ["b", "a"])]], p)


def two_loops_square_zero(p):
    q = Quiver(("1",), (("x", "1", "1"), ("y", "1", "1")))
    return algebra_from_quiver(
        q, [[(1, [u, w])] for u in ("x", "y") for w in ("x", "y")], p)


# algebras with relations that the extension builder's cocycle rows must respect;
# the mixed-sign commutativity relation puts two words into one row block
RELATION_ALGEBRAS = {
    f"{name}_p{p}": (lambda make=make, p=p: make(p))
    for name, make in (("square", commutative_square), ("two_cycle", two_cycle_zero),
                       ("two_loops", two_loops_square_zero))
    for p in (2, 3)
}
# two 3x3 loops at p=3 are 3^18 action tuples, past the per-tuple oracle's budget
ORACLE_BOUND = {"two_loops_p3": 2}


@pytest.fixture(scope="module")
def universes():
    return {name: build_universe(make(), BOUND, "extensions") for name, make in ALGEBRAS.items()}


def matched_one_to_one(xs, ys) -> bool:
    """Each module of xs is isomorphic to exactly one of ys, and vice versa."""
    if len(xs) != len(ys):
        return False
    unused = list(ys)
    for x in xs:
        hits = [y for y in unused if is_isomorphic_to_indecomposable(x, y)]
        if len(hits) != 1:
            return False
        unused.remove(hits[0])
    return True


# --- rref -------------------------------------------------------------------


def unreduced(p, r, c):
    """r x c int64 matrices with entries in [-p, 2p], not reduced mod p."""
    return st.lists(st.integers(-p, 2 * p), min_size=r * c, max_size=r * c).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(r, c))


@st.composite
def matrices(draw, p):
    """Random matrices up to 6x6, half of them products through a narrower middle."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return draw(unreduced(p, rows, cols))
    inner = draw(st.integers(0, min(rows, cols)))
    return draw(unreduced(p, rows, inner)) @ draw(unreduced(p, inner, cols))  # rank <= inner


def same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_rref_matches_numpy_elimination(p, data):
    m = data.draw(matrices(p))
    r, piv = ff.rref(m, p)
    want, want_piv = rref_numpy(m, p)
    assert same_array(r, want) and r.shape == m.shape
    assert piv == want_piv


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_rref_empty_shapes(shape):
    r, piv = ff.rref(ff.zeros(*shape), 3)
    want, _ = rref_numpy(ff.zeros(*shape), 3)
    assert r.dtype == np.int64 and r.shape == want.shape and piv == []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_kernel_basis_and_signature_match_numpy_oracles(p, data):
    m = data.draw(matrices(p))
    assert same_array(ff.kernel_basis(m, p), kernel_basis_numpy(m, p))
    sig = ff.signature(m)
    assert sig == signature_numpy(m) and all(type(x) is int for x in sig[1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_coordinates_match_numpy_oracle(p, data):
    """Vectors in the span and arbitrary ones, unreduced, against RREF rows of
    every shape, the empty ones included."""
    rows = ff.row_space_basis(data.draw(matrices(p)), p)
    k = data.draw(st.integers(0, 3))
    inside = data.draw(unreduced(p, k, rows.shape[0])) @ rows
    for v in (inside, inside + data.draw(unreduced(p, k, rows.shape[1]))):
        got, want = ff.coordinates(v, rows, p), coordinates_numpy(v, rows, p)
        assert (got is None) == (want is None)
        assert got is None or same_array(got, want)


def test_eye_hands_out_fresh_identities():
    for n in range(6):
        first = ff.eye(n)
        assert same_array(first, eye_numpy(n)) and first.flags.writeable
        first[...] = 7
        assert same_array(ff.eye(n), eye_numpy(n))


# --- Hom systems --------------------------------------------------------------


def assert_same_system(m, n):
    system, _ = _hom_system(m, n)
    want = hom_system_kron(m, n)
    assert system.dtype == np.int64
    assert system.shape == want.shape and np.array_equal(system, want)


def test_hom_system_matches_kronecker_blocks_on_universes(universes):
    for u in universes.values():
        for m in u.modules:
            for n in u.modules:
                assert_same_system(m, n)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_hom_system_matches_kronecker_blocks_on_random_modules(p, data):
    # relations are not imposed: the system is defined for any arrow matrices
    alg = data.draw(st.sampled_from([kronecker(p), loop_square_zero(p)]))

    def module():
        dims = tuple(data.draw(st.integers(0, 3)) for _ in range(alg.nv))
        mats = {}
        for a in alg.arrows:
            r, c = dims[alg.src[a]], dims[alg.tgt[a]]
            cells = data.draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
            mats[a] = np.array(cells, dtype=np.int64).reshape(r, c)
        return Module(alg, dims, mats, check=False)

    assert_same_system(module(), module())


# --- relation check and the builder ----------------------------------------------


def small_dim_vectors(alg, limit=20000):
    for dims in dim_vectors(alg.nv, BOUND):
        cells = sum(dims[alg.src[a]] * dims[alg.tgt[a]] for a in alg.arrows)
        if alg.p ** cells <= limit:
            yield dims


@pytest.mark.parametrize("name", ["loop_p3", "triangular_5"])
def test_satisfies_relations_matches_loop(name):
    alg = ALGEBRAS[name]()
    for dims in small_dim_vectors(alg, 800):
        for t in action_tuples(alg, dims):
            assert satisfies_relations(alg, dims, t) == satisfies_relations_loop(alg, t)


@pytest.mark.parametrize("name", list(ALGEBRAS) + list(RELATION_ALGEBRAS))
def test_batched_builder_matches_per_tuple_builder(name, universes):
    """build_universe(..., "extensions") finds the per-tuple builder's iso classes."""
    if name in universes:
        u = universes[name]
    else:
        u = build_universe(RELATION_ALGEBRAS[name](), ORACLE_BOUND.get(name, BOUND), "extensions")
    assert u.strategy == "extensions"
    got = u.modules
    assert [m.total_dim for m in got] == sorted(m.total_dim for m in got)
    assert matched_one_to_one(got, brute_force_per_tuple(u.algebra, u.bound))


def test_extension_build_cut_to_smaller_bound_is_unchanged():
    # representatives of small members do not depend on the bound (storage relies on it)
    for alg in (kronecker(3), commutative_square(2)):
        small = build_universe(alg, 3, "extensions").modules
        cut = [m for m in build_universe(alg, 5, "extensions").modules if m.total_dim <= 3]
        assert len(cut) == len(small)
        for x, y in zip(cut, small):
            assert x.dims == y.dims and all(np.array_equal(x.act[k], y.act[k]) for k in x.act)


# --- Ext^1 and middle terms ------------------------------------------------------


@pytest.fixture(scope="module")
def relation_universes():
    return {name: build_universe(make(), BOUND, "extensions")
            for name, make in RELATION_ALGEBRAS.items()}


def middle_key(e: Module, u) -> tuple:
    """End dimension, and the decomposition where e fits in the universe."""
    return len(hom_basis(e, e)), decompose(e, u) if e.total_dim <= u.bound else None


def test_ext1_cocycles_match_presentation_route(universes, relation_universes):
    """Arrow cocycles give the presentation route's Ext^1 dimension and middle terms.

    Middle terms are compared as multisets over all classes of each space.
    """
    for u in [*universes.values(), *relation_universes.values()]:
        for z in u.modules:
            for x in u.modules:
                ext = ext1_basis(z, x)
                pres, slow = ext1_by_presentation(z, x)
                assert ext.dim == slow.dim
                if u.algebra.p ** ext.dim > 64:
                    continue
                got = []
                for c in [ext.element([0] * ext.dim), *ext.all_cocycles()]:
                    ses = middle_term(ext, c)
                    assert satisfies_relations(u.algebra, ses.middle.dims, ses.middle.act)
                    assert ses.validate()
                    got.append(middle_key(ses.middle, u))
                want = [middle_key(middle_term_by_pushout(pres, c).middle, u)
                        for c in [slow.element([0] * slow.dim), *slow.elements()]]
                assert sorted(got) == sorted(want)


# --- direct sums and submodules ------------------------------------------------


def rows_key(rows) -> tuple:
    return tuple(ff.signature(r) for r in rows)


@pytest.mark.parametrize("picks", [(), (4,), (1, 4, 1)])
def test_direct_sum_matches_block_diagonal_sum(picks, universes, relation_universes):
    for u in [*universes.values(), *relation_universes.values()]:
        alg = u.algebra
        ms = [u.module(i % len(u)) for i in picks]
        total = direct_sum(ms, alg)
        oracle, _, _ = direct_sum_with_maps(ms, alg)
        assert total.dims == oracle.dims
        for k in range(alg.dim):
            block = total.act_block(k)
            assert np.array_equal(block, oracle.act_block(k))
            if k >= alg.nv:
                assert np.array_equal(block, block_diagonal([m.act_block(k) for m in ms]))


SUBMODULE_UNIVERSES = {
    "kA4_b4_p2": lambda: build_universe(
        algebra_from_quiver(linear_quiver(["1", "2", "3", "4"]), None, 2), 4),
    "loop_b3_p2": lambda: build_universe(loop_square_zero(2), 3),
    # triangular instances whose algebra has basis elements besides vertices and arrows
    **{f"triangular_{s}_b3_p2": (lambda s=s: build_universe(
        random_triangular_instance(random.Random(s), 2)[0], 3)) for s in (12, 35, 63)},
}


@pytest.mark.parametrize("name", list(SUBMODULE_UNIVERSES))
def test_submodule_rows_match_subspace_tuples_closed_under_the_algebra(name):
    """Closing under the arrows finds every tuple of vertex subspaces closed
    under all of the algebra, and nothing else."""
    u = SUBMODULE_UNIVERSES[name]()
    for m in u.modules:
        fast = [rows_key(rows) for rows in submodule_rows(m, u.thresholds)]
        slow = [rows_key(rows) for rows in submodule_rows_brute(m)]
        assert len(fast) == len(set(fast))
        assert sorted(fast) == sorted(slow)


def submodule_outcome(enumerate_rows, m, thresholds):
    try:
        return [rows_key(rows) for rows in enumerate_rows(m, thresholds)]
    except BudgetExceeded as exc:
        return str(exc)


def module_key(m, thresholds) -> tuple:
    return (m.algebra.algebra_hash, m.dims,
            tuple(m.act[a].tobytes() for a in sorted(m.act)), thresholds)


def test_submodule_rows_match_the_join_walk(monkeypatch):
    """Adding one cyclic submodule at a time finds the submodules that the
    pairwise join walk finds, in the same order, on every module enumerated by
    the D4 b6 p=3 left Schur census, by the filtration search on its first
    four non-representable closures and by 60 fuzz instances at p=2 and p=3,
    and on the members of the universes above, where paths of length two act.
    Each distinct module, over its algebra and at its budgets, is compared once."""
    recorded = []

    def recording(m, thresholds=DEFAULT_THRESHOLDS):
        recorded.append((m, thresholds))
        return submodule_rows(m, thresholds)

    for owner in (modules, slow_paths):
        monkeypatch.setattr(owner, "submodule_rows", recording)
    u = build_universe(d4(3), 6)
    for ids in all_left_schur(u).non_representable[:4]:
        assert not summand_audit_by_search(u, filt_closure(u, id_mask(ids)), ids)["ok"]
    for p in (2, 3):
        fuzz_exactness_sweep(15, 20260810, p=p)
        fuzz_theorem_sweep(15, 4040, p=p)
    monkeypatch.undo()
    distinct = {module_key(m, thresholds): (m, thresholds) for m, thresholds in recorded}
    # 470 calls reach 288 distinct modules: the same modules that 529 calls
    # reached when the census ran the filtration search itself
    assert len(distinct) >= 288
    for build in SUBMODULE_UNIVERSES.values():
        for m in build().modules:
            distinct.setdefault(module_key(m, DEFAULT_THRESHOLDS), (m, DEFAULT_THRESHOLDS))
    for m, thresholds in distinct.values():
        assert (submodule_outcome(submodule_rows, m, thresholds)
                == submodule_outcome(submodule_rows_by_joins, m, thresholds))


@pytest.mark.parametrize("thresholds", [Thresholds(submodule_vectors=9),
                                        Thresholds(submodule_count=1)])
def test_submodule_budgets_match_the_join_walk(thresholds):
    """Both walks count the same vectors and, at submodule_count=1, the same
    submodules when the budget runs out, so they raise the same message."""
    outcomes = [(submodule_outcome(submodule_rows, m, thresholds),
                 submodule_outcome(submodule_rows_by_joins, m, thresholds))
                for m in build_universe(d4(3), 5).modules]
    assert all(new == old for new, old in outcomes)
    assert sum(isinstance(new, str) for new, _ in outcomes) >= 5


@pytest.mark.parametrize("p", [2, 3])
def test_j_intermediate_is_the_image_of_theta(p):
    """j_!* N read as (j_* N).eA is the submodule that theta's matrices span,
    array for array, on every corner member of random triangular instances at
    both corner choices, and of kA4 at e = {1, 4}, where it is generated
    through a basis path of length 3."""
    cases = []
    for seed in range(100):
        alg, data = random_triangular_instance(random.Random(seed), p)
        cases += [(alg, verts, BOUND) for verts in (data.e.vertices, data.e.complement)
                  if verts and len(verts) < alg.nv]
    cases.append((algebra_from_quiver(linear_quiver(["1", "2", "3", "4"]), None, p), (0, 3), 4))
    checked = 0
    for alg, verts, bound in cases:
        r = build_recollement(alg, IdempotentSpec(alg, verts), bound=bound, self_check=False)
        for n in r.u_c.modules:
            img = r.apply_with_data("j_intermediate", n)
            sub, (_, rows) = _sub(r.apply("j_star", n), theta(r, n).mats)
            assert img.module.dims == sub.dims
            assert all(np.array_equal(img.module.act[a], sub.act[a]) for a in alg.arrows)
            assert all(np.array_equal(x, y) for x, y in zip(img.data[-1][1], rows))
            checked += 1
    assert checked > 300


# --- linear isomorphism test ----------------------------------------------------


def base_change(m: Module, rng: np.random.Generator) -> Module:
    """An isomorphic copy: act[a] -> g_s^-1 act[a] g_t for random invertible g_v."""
    p, alg = m.p, m.algebra
    gs, inv = [], []
    for d in m.dims:
        while True:
            g = rng.integers(0, p, size=(d, d))
            if ff.is_invertible(g, p):
                break
        gs.append(g)
        inv.append(ff.solve(g, ff.eye(d), p))
    mats = {a: ff.mul(ff.mul(inv[alg.src[a]], m.act[a], p), gs[alg.tgt[a]], p)
            for a in alg.arrows}
    return Module(alg, m.dims, mats, check=True)


def test_linear_iso_matches_scan_on_member_pairs(universes):
    for u in universes.values():
        for rep in u.modules:
            for m in u.modules:
                if m.dims == rep.dims:
                    want = is_isomorphic_scan(rep, m)
                    assert is_isomorphic_to_indecomposable(rep, m) == want
                    assert is_isomorphic(rep, m) == want


def test_linear_iso_finds_base_changes(universes):
    rng = np.random.default_rng(20261018)
    for u in universes.values():
        for rep in u.modules:
            for _ in range(3):
                m = base_change(rep, rng)
                assert is_isomorphic_scan(rep, m)
                assert is_isomorphism(isomorphism_from_indecomposable(rep, m))
                assert is_isomorphic(m, rep)


@pytest.mark.parametrize("name", ["kronecker_p2", "loop_p3", "triangular_5"])
def test_linear_iso_matches_scan_against_every_module(name, universes):
    # the other side ranges over all modules at the member's dims, decomposables included
    u = universes[name]
    small = set(small_dim_vectors(u.algebra, 800))
    for rep in u.modules:
        if rep.dims not in small:
            continue
        for mats in action_tuples(u.algebra, rep.dims):
            if not satisfies_relations_loop(u.algebra, mats):
                continue
            m = Module(u.algebra, rep.dims, mats, check=False)
            assert is_isomorphic_to_indecomposable(rep, m) == is_isomorphic_scan(rep, m)


# name -> (algebra, bound, monobricks whose Filt is not summand-closed); the
# square has a commutativity relation
AUDIT_UNIVERSES = {
    "kA4_b4_p2": (lambda: algebra_from_quiver(linear_quiver(["1", "2", "3", "4"]), None, 2), 4, 0),
    "zigzag_A3_b3_p2": (lambda: algebra_from_quiver(tree_quiver([("1", "2"), ("3", "2")]), None, 2),
                        3, 3),
    "d4_reversed_arm_b5_p3": (lambda: algebra_from_quiver(
        tree_quiver([("4", "1"), ("2", "4"), ("3", "4")]), None, 3), 5, 23),
    "square_b4_p3": (lambda: commutative_square(3), 4, 9),
}


@pytest.mark.parametrize("name", list(AUDIT_UNIVERSES))
def test_summand_audit_matches_search_on_monobrick_closures(name):
    """The census criterion sim(filt_closure(M)) = M says whether Filt M is
    summand-closed as the search for an explicit generator filtration of every
    closure member does, on every monobrick M, and the census lists exactly
    the monobricks that fail it."""
    make, bound, non_representable = AUDIT_UNIVERSES[name]
    u = build_universe(make(), bound)
    misses = []
    for entry in all_monobricks(u).entries:
        closure = filt_closure(u, id_mask(entry.ids))
        representable = sim(u, closure) == id_mask(entry.ids)
        assert representable == summand_audit_by_search(u, closure, entry.ids)["ok"], entry.ids
        if not representable:
            misses.append(entry.ids)
    assert len(misses) == non_representable
    assert all_left_schur(u).non_representable == misses


# name -> (algebra, bound, torsion-free classes); kA_n, D4 and D5 count W-Catalan
# numbers, the square and k[x]/(x^2) have relations, and Π(A2) (the two-cycle
# with both paths zero) has an oriented cycle: |S_3| = 6
TORF_UNIVERSES = {
    "kA3_b3_p2": (lambda: algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, 2), 3, 14),
    "kA4_b4_p2": (lambda: algebra_from_quiver(linear_quiver(["1", "2", "3", "4"]), None, 2),
                  4, 42),
    "d4_sink_b6_p3": (lambda: load_algebra_file(SAMPLES / "d4_p3.json"), 6, 50),
    "d5_b7_p2": (lambda: load_algebra_file(SAMPLES / "d5.json"), 7, 182),
    "square_b4_p3": (lambda: commutative_square(3), 4, 46),
    "loop_b2_p2": (lambda: loop_square_zero(2), 2, 2),
    "preprojective_A2_b3_p2": (lambda: two_cycle_zero(2), 3, 6),
}


@pytest.mark.parametrize("name", list(TORF_UNIVERSES))
def test_torf_walk_matches_the_filtered_left_schur_census(name):
    """The lattice walk gives the torsion-free entries of the left Schur
    census, ids and flags, on universes whose bricks the census can take."""
    make, bound, count = TORF_UNIVERSES[name]
    u = build_universe(make(), bound)
    assert all_monobricks(u).counts["monobricks"] <= u.thresholds.enumeration_states
    walk = all_torf(u)
    slow = torf_by_left_schur_filter(u)
    assert walk.counts == {"torf": count}
    assert [(e.ids, e.flags) for e in walk.entries] == [(e.ids, e.flags) for e in slow]


# --- per-universe work: decompose, submodule sequences, Hom spaces, bricks ------

def outcome(decomposition, m, u):
    """The decomposition, or the dimension vector that left the universe."""
    try:
        return decomposition(m, u)
    except UniverseExhausted as exc:
        return ("exhausted", tuple(exc.dim_vector))


def decomposition_inputs(u):
    """Members, sums of two and of three members, the middle terms of Ext^1 of
    member pairs of total dimension at most one past the bound (some leave the
    universe), and the subs and quotients of members."""
    n = len(u)
    yield from u.modules
    for i in u.ids:
        yield direct_sum([u.module(i), u.module((5 * i + 1) % n)])
    yield direct_sum([u.module(0), u.module(n // 2), u.module(n - 1)])
    for z in u.ids:
        for x in u.ids:
            if u.module(z).total_dim + u.module(x).total_dim <= u.bound + 1:
                ext = u.ext_space(z, x)
                for c in ext.all_cocycles(thresholds=u.thresholds):
                    yield middle_term(ext, c).middle
    for uid in u.ids:
        for sub, _, parts in submodule_sequences(u, uid):
            yield sub
            yield parts.module


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_member_test_first_decomposes_like_split_first(name, universes):
    u = universes[name]
    seen = Counter()
    for m in decomposition_inputs(u):
        fast = outcome(decompose, m, u)
        assert fast == outcome(decompose_split_first, m, u)
        seen["exhausted" if fast[0] == "exhausted" else min(len(fast), 2)] += 1
    assert seen[1] and seen[2]


def test_member_test_first_leaves_the_universe_like_split_first():
    alg = algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, 2)
    u2, u3 = build_universe(alg, 2), build_universe(alg, 3)
    long = u3.module(len(u3) - 1)  # the interval module of dimension 3
    for m in (long, direct_sum([u2.module(0), long])):
        for decomposition in (decompose, decompose_split_first):
            with pytest.raises(UniverseExhausted) as exc:
                decomposition(m, u2)
            assert tuple(exc.value.dim_vector) == (1, 1, 1)


def test_member_test_first_needs_no_end_scan():
    """A copy of a member decomposes under a scan budget its End scan exceeds."""
    built = build_universe(kronecker(2), BOUND)
    u = IndecUniverse(built.algebra, built.bound, built.strategy, built.modules,
                      Thresholds(scan_limit=1))
    for uid, m in enumerate(u.modules):
        assert decompose(m, u) == (uid,)
        with pytest.raises(BudgetExceeded):
            decompose_split_first(m, u)


def same_module(m, n) -> bool:
    return m.dims == n.dims and all(np.array_equal(m.act[a], n.act[a]) for a in m.algebra.arrows)


def same_mats(xs, ys) -> bool:
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


def test_exactness_certificate_sequence_matches_presentation_route():
    """0 -> AeA -> A -> A/AeA -> 0 splits, and i^! keeps its epi surjective,
    exactly when the presentation of A/AeA by one e_v A per basis vector
    does; both corners of 20 instances at p = 2 and at p = 3."""
    verdicts = set()
    for seed in range(20):
        for p in (2, 3):
            alg, data = random_triangular_instance(random.Random(seed), p)
            for verts in (data.e.vertices, data.e.complement):
                if not verts or len(verts) == alg.nv:
                    continue
                r = build_recollement(alg, IdempotentSpec(alg, verts), bound=2,
                                      self_check=False)
                _, ses = next(r._exactness_sequences())
                assert ses.validate()
                assert ses.sub.total_dim == r.b_data.ideal_rows.shape[0]
                assert ses.quot.total_dim == r.b_alg.dim
                got = (is_split(ses), is_surjective(r.apply_to_morphism("i_shriek", ses.epi)))
                assert got == exactness_by_presentation(r)
                verdicts.add(got)
    assert verdicts == {(True, True), (False, False)}


@pytest.mark.parametrize("seed", [12, 35, 63])
def test_submodule_sequence_table_matches_per_call_construction(seed):
    """The table, read first by both sides' exactness certificates and by
    submodule_decomps, still holds the modules and maps built afresh."""
    alg, data = random_triangular_instance(random.Random(seed), 2)
    r = build_recollement(alg, data.e, bound=BOUND, self_check=False)
    other = build_recollement(alg, IdempotentSpec(alg, data.e.complement), bound=BOUND,
                              self_check=False, universe=r.u_a)
    u = r.u_a
    r.is_i_shriek_exact()
    other.is_i_shriek_exact()
    for uid in u.ids:
        submodule_decomps(u, uid)
    sequences = 0
    for uid in u.ids:
        table = submodule_sequences(u, uid)
        slow = submodule_sequences_per_call(u.module(uid), u.thresholds)
        assert len(table) == len(slow)
        for (sub, incl, parts), (sub2, incl2, parts2) in zip(table, slow):
            assert same_module(sub, sub2) and same_module(parts.module, parts2.module)
            assert incl.src is sub and incl.dst is u.module(uid)
            assert parts.projection.src is u.module(uid) and parts.projection.dst is parts.module
            assert same_mats(incl.mats, incl2.mats)
            assert same_mats(parts.projection.mats, parts2.projection.mats)
            assert same_mats(parts.rep_rows, parts2.rep_rows)
        sequences += len(table)
    assert sequences


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_shared_hom_spaces_and_brick_verdicts_match_fresh_ones(name):
    u = build_universe(ALGEBRAS[name](), BOUND, "extensions")  # a memo of its own
    bricks = mask_ids(all_bricks(u))
    assert bricks == brick_ids_fresh(u)
    for i in u.ids:
        if i in bricks:
            require_bricks(u, 1 << i)
        else:
            with pytest.raises(InputError, match=f"universe member {i} is not a brick"):
                require_bricks(u, 1 << i)
    for i in u.ids:
        for j in u.ids:
            assert hom_profile(u, i, j) == hom_profile_fresh(u, i, j)
            assert hom_element_kernels(u, i, j) == hom_element_kernels_fresh(u, i, j)
            assert u.hom_space(i, j).dim == len(hom_basis(u.module(i), u.module(j)))


# --- bound-quiver algebras and A/AeA ----------------------------------------


def paths_of_length(arrows, length):
    frontier = [(i,) for i in range(len(arrows))]
    for _ in range(length - 1):
        frontier = [w + (j,) for w in frontier for j, a in enumerate(arrows)
                    if a[1] == arrows[w[-1]][2]]
    return frontier


def random_bound_quiver(rng: random.Random, p: int, cyclic: bool):
    """(quiver, relations, max_len): acyclic with monomial and multi-term relations,
    or with an oriented cycle and monomial relations that contain every path of
    length max_len + 1."""
    if cyclic:
        verts = [str(k) for k in range(rng.randint(1, 3))]
        arrows = [(f"a{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(1, 3))]
        if all(s != t for _, s, t in arrows):
            v = rng.choice(verts)
            arrows.append((f"a{len(arrows)}", v, v))
        r = rng.randint(2, 3)
        rels = [[(1, [arrows[a][0] for a in w])] for w in paths_of_length(arrows, r)]
        short = paths_of_length(arrows, 2)
        for w in rng.sample(short, min(len(short), rng.randint(0, 2))):
            rels.append([(rng.randint(1, p - 1), [arrows[a][0] for a in w])])
        rng.shuffle(rels)
        return Quiver(tuple(verts), tuple(arrows)), rels, r - 1
    n = rng.randint(3, 5)
    verts = [str(k) for k in range(n)]
    arrows = []
    for k in range(rng.randint(2, 7)):
        s = rng.randrange(n - 1)
        arrows.append((f"a{k}", verts[s], verts[rng.randrange(s + 1, n)]))
    long_paths = [w for length in range(2, n) for w in paths_of_length(arrows, length)]
    rels = [[(rng.randint(1, p - 1), [arrows[a][0] for a in w])]
            for w in rng.sample(long_paths, min(len(long_paths), rng.randint(0, 2)))]
    blocks = {}
    for w in long_paths:
        blocks.setdefault((arrows[w[0]][1], arrows[w[-1]][2]), []).append(w)
    parallel = [ws for ws in blocks.values() if len(ws) >= 2]
    for _ in range(rng.randint(1, 2) if parallel else 0):
        ws = rng.choice(parallel)
        # coefficients 0 and p drop terms, so some of these become monomial or vanish
        rels.append([(rng.randrange(1, p) if rng.random() < 0.8 else rng.choice((0, p)),
                      [arrows[a][0] for a in w])
                     for w in rng.sample(ws, rng.randint(2, len(ws)))])
    return Quiver(tuple(verts), tuple(arrows)), rels, None


def algebra_key(a):
    return a.algebra_hash, a.labels, a.src, a.tgt


@pytest.mark.parametrize("p", [2, 3])
def test_path_pruning_and_quotient_match_ideal_fixpoint(p):
    rng = random.Random(100 + p)
    multi_term = 0
    for k in range(150):
        quiver, rels, max_len = random_bound_quiver(rng, p, cyclic=k % 3 == 2)
        multi_term += any(sum(1 for c, _ in rel if c % p) > 1 for rel in rels)
        assert algebra_key(algebra_from_quiver(quiver, rels, p)) \
            == algebra_key(quotient_by_ideal_fixpoint(quiver, rels, p, max_len=max_len))
    assert multi_term >= 20


def test_max_paths_counts_basis_paths_not_paths_of_the_quiver():
    quiver = linear_quiver([str(i) for i in range(12)])
    rels = [[(1, [a[0], b[0]])] for a, b in zip(quiver.arrows, quiver.arrows[1:])]
    a = algebra_from_quiver(quiver, rels, 2, max_paths=40)  # Q itself has 66 paths
    assert a.dim == 23
    assert algebra_key(a) == algebra_key(quotient_by_ideal_fixpoint(quiver, rels, 2))
    with pytest.raises(BudgetExceeded):
        algebra_from_quiver(quiver, rels, 2, max_paths=10)


def test_max_path_len_binds_only_quivers_with_oriented_cycles():
    assert algebra_from_quiver(linear_quiver(list("123456")), None, 2, max_path_len=3).dim == 21


# sha256 of every QuotientData below, as computed by the ideal closure this replaced
QUOTIENT_DIGEST = "4c94e2c351cc2011c57f09a524b04e6f2c8e279df99f3af96b34d3d9c98a666a"


def test_quotient_by_idempotent_ideal_matches_products_oracle():
    rng = random.Random(3)
    records = []
    for k in range(60):
        a, _ = random_triangular_instance(rng, 2 + k % 2)
        ident = ff.eye(a.dim)
        for r in range(a.nv + 1):
            for vs in itertools.combinations(range(a.nv), r):
                e = IdempotentSpec(a, vs)
                quot, qd = quotient_by_idempotent_ideal(a, e)
                ideal = ideal_of_idempotent(a, e)
                assert np.array_equal(qd.ideal_rows, ideal)
                assert qd.vertex_map == e.complement
                rep = []
                for i in list(e.complement) + list(range(a.nv, a.dim)):
                    if ff.rank(np.concatenate([ideal, ident[rep + [i]]]), a.p) \
                            > ideal.shape[0] + len(rep):
                        rep.append(i)
                assert qd.rep == tuple(rep)
                assert ideal.shape[0] + len(rep) == a.dim
                # the projection kills the ideal and is the identity on the representatives
                assert not (ideal @ qd.projection % a.p).any()
                assert np.array_equal(ident[rep] @ qd.projection % a.p, ff.eye(len(rep)))
                records.append([quot.algebra_hash, list(qd.rep), list(qd.vertex_map),
                                qd.projection.tolist(), qd.ideal_rows.tolist()])
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == QUOTIENT_DIGEST


# sha256 of the triangular, corner and quotient tables and their data tuples
# below, taken while each derived table was still built entry by entry
ALGEBRA_LAYER_DIGEST = "5e25946acf7a74f99301ecfe519db4b3960b8c90b9f51d8571ef8cb2e39180e6"


def test_derived_tables_are_pinned():
    records = []
    for p in (2, 3, 5):
        for seed in range(100):
            a, td = random_triangular_instance(random.Random(seed), p)
            records.append([a.algebra_hash, list(td.e.vertices), list(td.b_indices),
                            list(td.m_indices), list(td.c_indices)])
            for verts in (td.e.vertices, td.e.complement):
                e = IdempotentSpec(a, verts)
                corner, cd = corner_algebra(a, e)
                quot, qd = quotient_by_idempotent_ideal(a, e)
                records.append([corner.algebra_hash, list(cd.index_map), list(cd.vertex_map),
                                quot.algebra_hash, list(qd.rep), list(qd.vertex_map),
                                qd.projection.tolist(), qd.ideal_rows.tolist()])
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == ALGEBRA_LAYER_DIGEST


def input_outcome(check) -> str:
    try:
        check()
    except InputError as exc:
        return str(exc)
    return "ok"


def perturbed(rng: random.Random, arrays: list[np.ndarray], p: int, lo: int = 0) -> list[np.ndarray]:
    """Copies of the arrays with one to three entries, each index at least lo,
    moved by a nonzero amount mod p."""
    out = [x.copy() for x in arrays]
    for _ in range(rng.randint(1, 3)):
        x = rng.choice([y for y in out if y.size])
        pos = tuple(rng.randrange(lo, n) for n in x.shape)
        x[pos] = (x[pos] + rng.randrange(1, p)) % p
    return out


# sha256 of the outcome of the table and bimodule checks on the perturbations
# below, taken while both checks still looped over pairs of basis elements
TABLE_CHECK_DIGEST = "d2e9ad4a02651d90486d2b25e272daa1fb142a1a867c72157e9b822a092ca8e8"


def test_table_checks_keep_their_first_error():
    """Every other perturbation stays inside the radical: of a table, where
    only associativity and nilpotency can fail, and of a bimodule, where the
    actions stay unital."""
    rng = random.Random(19)
    tables, bimodules = [], []
    for k in range(2000):
        p = (2, 3, 5)[k % 3]
        a, _ = random_triangular_instance(random.Random(k // 3), p)
        if k % 2 and a.dim == a.nv:
            continue
        (mult,) = perturbed(rng, [a.mult], p, lo=a.nv if k % 2 else 0)
        tables.append(input_outcome(lambda: Algebra(p, list(a.vertex_labels), list(a.labels),
                                                    list(a.src), list(a.tgt), mult)))
    for seed in itertools.count():
        if len(bimodules) == 2000:
            break
        p = (2, 3, 5)[seed % 3]
        draw = random.Random(seed)
        b, c = random_edge_algebra(draw, p, "b"), random_edge_algebra(draw, p, "c")
        m = random_bimodule(draw, b, c)
        if m.dim:
            act = {(side, i): x for side in ("left", "right") for i, x in getattr(m, side).items()}
            pick = [key for key in sorted(act) if len(bimodules) % 2 == 0
                    or key[1] >= (c.nv if key[0] == "left" else b.nv)] or sorted(act)
            act.update(zip(pick, perturbed(rng, [act[key] for key in pick], p)))
            left = {i: x for (side, i), x in act.items() if side == "left"}
            right = {i: x for (side, i), x in act.items() if side == "right"}
            bimodules.append(input_outcome(
                lambda: validate_bimodule(b, c, Bimodule(m.dim, left, right))))
    kinds = Counter("homogeneous" if text.endswith("homogeneous") else text.split(" ")[0]
                    for text in tables)
    assert min(kinds.values()) > 100 and len(kinds) == 4
    assert all(any(tag in text for text in bimodules)
               for tag in ("ok", "not unital", "left action)", "(right action", ", m, "))
    digest = hashlib.sha256(json.dumps([tables, bimodules]).encode()).hexdigest()
    assert digest == TABLE_CHECK_DIGEST


# --- the gluing layer on masks against the id-set gluing ----------------------


def gluing_instances():
    """kA3 at e = {1}, kA4 at e = {1, 2, 3}, and the first 20 fuzz instances
    from seed 4040 whose laws 3.2-3.4 the sweep decides at bound 3, as
    fuzz_theorem_sweep does (the others leave the universe or the budget)."""
    a3, a4 = (load_algebra_file(SAMPLES / f"a{n}.json") for n in (3, 4))
    yield "kA3_e1", build_recollement(a3, IdempotentSpec(a3, (0,)), bound=3)
    yield "kA4_e123", build_recollement(a4, IdempotentSpec(a4, (0, 1, 2)), bound=4)
    seed, found = 4040, 0
    while found < 20:
        alg, data = random_triangular_instance(random.Random(seed), 2)
        seed += 1
        try:
            r = build_recollement(alg, data.e, bound=3, self_check=False)
            for law in ("3.2", "3.3", "3.4"):
                verify_theorem(r, law)
        except (BudgetExceeded, UniverseExhausted):
            continue
        found += 1
        yield f"fuzz_{seed - 1}", r


def test_mask_gluing_matches_the_id_set_gluing():
    """glue_subcategory on every edge subset pair, restrict on every subset of
    u_A (or, past 2^12 subsets, on every glued set) and the reports of laws
    3.2, 3.3 and 3.4 equal their id-set versions."""
    names = []
    for name, r in gluing_instances():
        names.append(name)
        nb, nc, na = len(r.u_b), len(r.u_c), len(r.u_a)
        glued = set()
        for y in range(2 ** nb):
            for z in range(2 ** nc):
                x = glue_subcategory(r, y, z, "torf")
                assert mask_ids(x) == glue_subcategory_by_sets(r, mask_ids(y), mask_ids(z)), name
                glued.add(x)
        for x in range(2 ** na) if 2 ** na <= 4096 else glued:
            back = restrict(r, x)
            assert tuple(map(mask_ids, back)) == restrict_by_sets(r, mask_ids(x)), name
        for law in ("3.2", "3.3", "3.4"):
            assert verify_theorem(r, law) == verify_theorem_by_sets(r, law), (name, law)
    assert len(names) == 22


def test_every_morphism_is_built_from_reduced_int64_blocks(monkeypatch):
    """Morphism keeps its blocks as given, so every producer reduces them: on
    the morphisms of a fuzz sweep of each kind at p = 2 and 3 and of the
    censuses of kA4 and of D4 at p = 3 (where Hom spaces have elements with
    coefficient 2), every block is int64 with entries in [0, p)."""
    built, bad = Counter(), []
    init = modules.Morphism.__init__

    def recording(self, src, dst, mats, **kwargs):
        init(self, src, dst, mats, **kwargs)
        built[src.p] += 1
        if not all(m.dtype == np.int64 and (not m.size or 0 <= m.min() <= m.max() < src.p)
                   for m in self.mats):
            bad.append([m.tolist() for m in self.mats])

    monkeypatch.setattr(modules.Morphism, "__init__", recording)
    for p in (2, 3):
        fuzz_exactness_sweep(20, 20260810, p=p)
        fuzz_theorem_sweep(20, 4040, p=p)
    for sample, bound in (("a4.json", 4), ("d4_p3.json", 6)):
        u = build_universe(load_algebra_file(SAMPLES / sample), bound)
        all_wide(u)
        all_torf(u)
        verify_bijection(u)
    assert built[2] > 1000 and built[3] > 1000 and not bad, bad[:3]
