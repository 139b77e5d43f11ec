import gc
import random
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from schurrec import census
from schurrec.algebras import point_algebra
from schurrec.census import (
    all_bricks,
    all_left_schur,
    all_monobricks,
    all_torf,
    all_wide,
    fuzz_exactness_sweep,
    fuzz_theorem_sweep,
    random_triangular_instance,
    reproduce_table1,
)
from schurrec.errors import BudgetExceeded
from schurrec.modules import IndecUniverse, Thresholds, build_universe
from schurrec.storage import load_algebra_file
from schurrec.subcats import mask_ids, verify_bijection
from conftest import a2_algebra, a3_algebra, memo_tables

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
A3 = SAMPLES / "a3.json"


@pytest.fixture(scope="module")
def u2():
    return build_universe(a2_algebra(), 2)


@pytest.fixture(scope="module")
def u3():
    return build_universe(a3_algebra(), 3)


def test_bricks_a2_a3(u2, u3):
    assert mask_ids(all_bricks(u2)) == (0, 1, 2)
    assert len(mask_ids(all_bricks(u3))) == 6


def test_brick_point():
    u = build_universe(point_algebra(5), 2)
    assert all_bricks(u) == 1


def test_monobrick_counts_a2(u2):
    res = all_monobricks(u2)
    assert res.counts == {
        "bricks": 3, "monobricks": 6, "semibricks": 5, "cc_monobricks": 5,
    }


def test_monobrick_counts_point():
    u = build_universe(point_algebra(2), 2)
    res = all_monobricks(u)
    assert res.counts["monobricks"] == 2  # the empty set and the simple


def test_monobrick_counts_a3(u3):
    res = all_monobricks(u3)
    assert res.counts["monobricks"] == 22
    assert res.counts["semibricks"] == 14
    assert res.counts["cc_monobricks"] == 14


def test_left_schur_counts_a2(u2):
    res = all_left_schur(u2)
    assert res.oracle_ran
    assert res.counts == {"left_schur": 6, "wide": 5, "torsion_free": 5,
                          "non_representable_monobricks": 0}


def test_left_schur_counts_point():
    u = build_universe(point_algebra(3), 2)
    res = all_left_schur(u)
    assert res.counts["left_schur"] == 2  # {0} and the whole category


def test_left_schur_counts_a3(u3):
    res = all_left_schur(u3)
    assert res.oracle_ran
    assert res.counts["left_schur"] == 22
    assert res.counts["wide"] == 14
    assert res.counts["torsion_free"] == 14


def test_left_schur_counts_sink_d4_p3_b6():
    """D4 with every arrow into the centre over F_3: 171 of the 334 monobricks
    have a Filt that is not summand-closed, which the census reads off sim of
    their closures.  The 12 indecomposables are few enough for the subset
    oracle to check the 163."""
    res = all_left_schur(build_universe(load_algebra_file(SAMPLES / "d4_p3.json"), 6))
    assert res.oracle_ran
    assert res.counts == {"left_schur": 163, "wide": 50, "torsion_free": 50,
                          "non_representable_monobricks": 171}


def test_left_schur_counts_d5_p2_b7():
    """D5 (1->2->3->4, 3->5) over F_2: every indecomposable has dimension <= 7.
    182 is the W-Catalan number of D5, so the wide and torsion-free flags of the
    left Schur census are checked against independent mathematics; 604 of the
    1,456 monobricks have a Filt that is not summand-closed.  The 20 bricks are
    too many for the subset oracle."""
    res = all_left_schur(build_universe(load_algebra_file(SAMPLES / "d5.json"), 7))
    assert res.counts == {"left_schur": 852, "wide": 182, "torsion_free": 182,
                          "non_representable_monobricks": 604}


def test_wide_torf_censuses_cross_checked(u2):
    assert all_wide(u2).counts["wide"] == 5
    assert all_torf(u2).counts["torf"] == 5


def test_counting_inequalities(u2, u3):
    for u in (u2, u3):
        res = all_monobricks(u)
        assert res.counts["semibricks"] <= res.counts["monobricks"]
        assert res.counts["cc_monobricks"] <= res.counts["monobricks"]


def test_bijection_report_a2(u2):
    report = verify_bijection(u2)
    assert report["ok"], report["counterexamples"]
    assert report["counts"]["monobricks"] == 6
    assert report["counts"]["wide"] == report["counts"]["semibricks"] == 5
    assert report["counts"]["torsion_free"] == report["counts"]["cc_monobricks"] == 5


def test_bijection_report_a3(u3):
    report = verify_bijection(u3)
    assert report["ok"], report["counterexamples"]
    assert report["counts"]["left_schur"] == report["counts"]["monobricks"] == 22


def test_table_reproduction():
    report, _ = reproduce_table1(p=2)
    assert report["ok"], report["failures"]
    assert report["triangular_matches_quiver"]
    assert len(report["rows"]) == 12
    assert sum(1 for row in report["rows"] if not row["torsion_free"]) == 2
    assert sum(1 for row in report["rows"] if not row["wide"]) == 2
    # the two non-torf rows share the non-cofinally-closed B side {2/3}
    for row in report["rows"]:
        assert row["torsion_free"] == row["b_cofinally_closed"]
        assert row["wide"] == row["b_semibrick"]


def test_random_instances_are_valid_algebras():
    rng = random.Random(42)
    for _ in range(10):
        alg, data = random_triangular_instance(rng)
        assert alg.dim >= 1
        assert set(data.e.vertices) <= set(range(alg.nv))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fuzz_instances_have_proper_nonempty_corners(p):
    """Every edge family has a vertex, so both corners of every instance are
    nonempty: on the instance seeds of the benchmark's fuzz workload at its
    seeds 0 and 5 (exactness from 20260810, gluing laws from 4040, 120 each,
    shifted by 1000 per seed), the sweeps never meet e = 0 or e = 1."""
    for base in (20260810, 4040):
        for seed in [*range(base, base + 120), *range(base + 5000, base + 5120)]:
            alg, data = random_triangular_instance(random.Random(seed), p)
            assert data.e.vertices and data.e.complement, seed


def test_fuzz_exactness_smoke():
    report = fuzz_exactness_sweep(8, seed=1234)
    assert report["ok"], [e for e in report["instances"] if not e.get("ok", True)]
    assert report["checked"] >= 4


def test_fuzz_theorem_smoke():
    report = fuzz_theorem_sweep(4, seed=99, laws=("3.4",))
    assert report["ok"]
    assert report["checked"] >= 2


@pytest.fixture(scope="module")
def theorem_sweep_at_default_budgets():
    return fuzz_theorem_sweep(4, 4040, ("3.2",))


@pytest.mark.parametrize("workers", [1, 2])
def test_fuzz_theorem_sweep_honours_its_budgets(theorem_sweep_at_default_budgets, workers):
    """At subset_cap=1 every instance the default budgets check exits on the edge-subset budget."""
    default = theorem_sweep_at_default_budgets
    capped = fuzz_theorem_sweep(4, 4040, ("3.2",), thresholds=Thresholds(subset_cap=1),
                                workers=workers)
    assert default["checked"] == 3
    assert capped["checked"] == 0 and capped["skipped"] == 4
    for before, after in zip(default["instances"], capped["instances"]):
        if not before.get("skipped"):
            assert after["reason"].startswith("edge subset sweep too large"), after


def test_fuzz_exactness_sweep_honours_its_budgets():
    capped = fuzz_exactness_sweep(6, 20260810, thresholds=Thresholds(submodule_count=1))
    assert fuzz_exactness_sweep(6, 20260810)["checked"] == 6
    assert capped["checked"] == 0
    assert all(e["reason"].startswith("too many submodules") for e in capped["instances"])


def test_census_runs_once_per_universe(monkeypatch):
    """The census functions share one left Schur census, so each monobrick is closed once."""
    calls = []
    closure = census.filt_closure
    monkeypatch.setattr(census, "filt_closure", lambda *a: calls.append(a) or closure(*a))
    u = build_universe(load_algebra_file(A3), 3)
    all_left_schur(u)
    verify_bijection(u)
    all_wide(u)
    all_torf(u)
    assert len(calls) == all_monobricks(u).counts["monobricks"] == 22


def test_cached_census_keeps_no_reference_to_its_universe():
    """Without a cycle through the universe, dropping it frees it at once,
    with its Hom spaces, brick verdicts and submodule sequences cached."""
    gc.disable()
    try:
        u = build_universe(load_algebra_file(A3), 3)
        verify_bijection(u)
        all_wide(u)
        assert {"all_monobricks", "all_left_schur", "hom_space", "_is_brick",
                "submodule_sequences"} <= memo_tables(u)
        gone = weakref.ref(u)
        del u
        assert gone() is None
    finally:
        gc.enable()


def with_states(u, limit: int) -> IndecUniverse:
    """The members of u in a fresh universe whose census budget is limit."""
    return IndecUniverse(u.algebra, u.bound, u.strategy, u.modules,
                         replace(u.thresholds, enumeration_states=limit))


def test_monobrick_budget_is_the_enumeration_states(u3):
    """Each monobrick found, the empty one included, is one state: kA3 has 22,
    so a budget of 21 exits with needed 22 and 22 is enough."""
    with pytest.raises(BudgetExceeded, match="too many monobricks") as exc:
        all_monobricks(with_states(u3, 21))
    assert (exc.value.needed, exc.value.limit) == (22, 21)
    assert all_monobricks(with_states(u3, 22)).counts["monobricks"] == 22
