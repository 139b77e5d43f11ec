"""The memos keyed by module content against recomputation: decompositions
per universe, Ext¹(member, simple) solved by the universe builder, functor
images per recollement, and the edge universes kept on the A-universe."""

import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from schurrec.algebras import IdempotentSpec, algebra_from_quiver, linear_quiver
from schurrec.census import (
    _exactness_one,
    _fuzz_instance,
    _theorem_one,
    all_left_schur,
    all_torf,
    all_wide,
    random_triangular_instance,
)
from schurrec.errors import InputError, UniverseExhausted
from schurrec.modules import (
    DEFAULT_THRESHOLDS,
    Module,
    Morphism,
    build_universe,
    decompose,
    ext1_basis,
)
from schurrec.recollements import FUNCTOR_TAGS, _transport, build_recollement
from schurrec.storage import load_algebra_file
from slow_paths import decompose_unmemoised, id_of_by_scan

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
LAWS = ("3.2", "3.3", "3.4", "3.5")


def outcome(decomposition, m, u):
    """The decomposition, or the dimension vector that left the universe."""
    try:
        return decomposition(m, u)
    except UniverseExhausted as exc:
        return ("exhausted", tuple(exc.dim_vector))


def record_decompositions(monkeypatch) -> tuple[dict, Counter]:
    """Wrap decompose in every module of the package that binds it; returns the
    distinct (universe, module content) pairs it sees and the calls per pair."""
    real = decompose
    seen: dict = {}
    calls: Counter = Counter()

    def recording(m, u):
        key = (id(u), m)
        seen.setdefault(key, (m, u))
        calls[key] += 1
        return real(m, u)

    for name, mod in list(sys.modules.items()):
        if name.startswith("schurrec"):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, recording)
    return seen, calls


def assert_memo_matches_recomputation(seen: dict, calls: Counter) -> None:
    assert seen and sum(calls.values()) > len(calls)  # some content came back
    for m, u in seen.values():
        assert outcome(decompose, m, u) == outcome(decompose_unmemoised, m, u)


@pytest.mark.parametrize("p", [2, 3])
def test_memoised_decompose_matches_recomputation_on_the_fuzz_streams(p, monkeypatch):
    """Every module decomposed in the first 20 instances of the exactness and
    the gluing-law streams."""
    seen, calls = record_decompositions(monkeypatch)
    for k in range(20):
        _fuzz_instance((_exactness_one, 20260810 + k, p, 3, DEFAULT_THRESHOLDS))
        _fuzz_instance((_theorem_one, 4040 + k, p, 3, DEFAULT_THRESHOLDS, LAWS))
    assert_memo_matches_recomputation(seen, calls)


@pytest.mark.parametrize("path, bound", [("a4.json", 4), ("d4_p3.json", 6)])
def test_memoised_decompose_matches_recomputation_in_the_censuses(path, bound, monkeypatch):
    seen, calls = record_decompositions(monkeypatch)
    u = build_universe(load_algebra_file(SAMPLES / path), bound)
    all_left_schur(u)
    all_wide(u)
    all_torf(u)
    assert_memo_matches_recomputation(seen, calls)


def test_member_key_table_agrees_with_the_scan_and_checks_the_algebra():
    u = build_universe(load_algebra_file(SAMPLES / "d4_p3.json"), 6)
    for uid, m in enumerate(u.modules):
        twin = copy_of(m)
        assert u.id_of(twin) == id_of_by_scan(u, twin) == uid
    # equal content over another algebra is another module
    a2 = {p: algebra_from_quiver(linear_quiver(["1", "2"]), None, p) for p in (2, 3)}
    s2, s3 = (Module.simple(a2[p], 0) for p in (2, 3))
    assert s2.key == s3.key and s2 != s3
    u2 = build_universe(a2[2], 2)
    assert u2.id_of(s2) is not None
    with pytest.raises(InputError):
        u2.id_of(s3)


# --- Ext¹(member, simple) from the universe builder ---------------------------

EXT_UNIVERSES = {
    "kA3": (lambda: algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, 2), 3),
    "D4_p3_b6": (lambda: load_algebra_file(SAMPLES / "d4_p3.json"), 6),
    "loop_b4": (lambda: load_algebra_file(SAMPLES / "loop_square_zero.json"), 4),
}


@pytest.mark.parametrize("name", EXT_UNIVERSES)
def test_seeded_ext_spaces_are_byte_equal_to_fresh_ones(name):
    make, bound = EXT_UNIVERSES[name]
    u = build_universe(make(), bound, "extensions")
    simples = [sid for sid in u.ids if u.module(sid).total_dim == 1]
    seeded = {slot[1:] for slot in u.cache if slot[0].__name__ == "ext_space"}
    assert seeded == {(i, s) for i in u.ids if u.module(i).total_dim < bound for s in simples}
    for i in u.ids:
        for s in simples:
            ext, fresh = u.ext_space(i, s), ext1_basis(u.module(i), u.module(s))
            assert ext.quot is u.module(i) and ext.sub is u.module(s)
            assert ext.basis.dtype == fresh.basis.dtype and ext.basis.shape == fresh.basis.shape
            assert ext.basis.tobytes() == fresh.basis.tobytes()


# --- functor images -------------------------------------------------------------


def copy_of(m: Module) -> Module:
    return Module(m.algebra, m.dims, {a: mat.copy() for a, mat in m.act.items()})


def same_module(m: Module, n: Module) -> bool:
    return m.dims == n.dims and all(np.array_equal(m.act[a], n.act[a]) for a in m.algebra.arrows)


def same_mats(xs, ys) -> bool:
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


def recollements():
    alg = algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, 2)
    yield build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
    for seed, p in ((12, 2), (35, 2), (63, 2), (7, 3)):
        alg, data = random_triangular_instance(random.Random(seed), p)
        for verts in (data.e.vertices, data.e.complement):
            yield build_recollement(alg, IdempotentSpec(alg, verts), bound=3, self_check=False)


def test_equal_content_gets_one_image_and_fresh_transports():
    morphisms = 0
    for r in recollements():
        for tag in FUNCTOR_TAGS:
            u = r.universe_of(tag)
            for m in u.modules:
                twin = copy_of(m)
                assert twin is not m and twin == m and hash(twin) == hash(m)
                assert r.apply_with_data(tag, twin) is r.apply_with_data(tag, m)
            for i in u.ids:
                for j in u.ids:
                    for f in u.hom_space(i, j).basis:
                        src, dst = r._build(tag, f.src), r._build(tag, f.dst)
                        want = _transport(src.data, dst.data, f.mats, f.p)
                        twin = Morphism(copy_of(f.src), copy_of(f.dst), f.mats)
                        for g in (f, twin):
                            got = r.apply_to_morphism(tag, g)
                            assert same_module(got.src, src.module)
                            assert same_module(got.dst, dst.module)
                            assert same_mats(got.mats, want)
                        morphisms += 1
    assert morphisms > 100


def test_both_corner_choices_share_edge_universes_equal_to_fresh_builds():
    shared = 0
    for seed in range(20260810, 20260830):
        alg, data = random_triangular_instance(random.Random(seed), 2)
        r = build_recollement(alg, data.e, bound=3, self_check=False)
        other = build_recollement(alg, IdempotentSpec(alg, data.e.complement), bound=3,
                                  self_check=False, universe=r.u_a)
        for mine, theirs in ((r.u_b, other.u_c), (r.u_c, other.u_b)):
            if mine.algebra.algebra_hash == theirs.algebra.algebra_hash:
                assert mine is theirs
                shared += 1
            for u in (mine, theirs):
                fresh = build_universe(u.algebra, 3)
                assert [m.key for m in u.modules] == [m.key for m in fresh.modules]
    assert shared >= 20
