"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every check here is exact (integer arithmetic); the runtime ceilings come
from the acceptance contract and are asserted alongside the math.  Each test
prints one PASS/FAIL line (visible with pytest -s or in the captured log).
"""

import random
import time

import pytest

from schurrec import fields as ff
from schurrec.algebras import IdempotentSpec
from schurrec.census import (
    all_left_schur,
    all_monobricks,
    fuzz_exactness_sweep,
    fuzz_theorem_sweep,
    reproduce_table1,
)
from schurrec.modules import (
    ShortExactSequence,
    build_universe,
    decompose,
    direct_sum,
    quotient_by_rows,
    submodule_from_rows,
    submodule_rows,
)
from schurrec.recollements import build_recollement, verify_theorem
from schurrec.subcats import verify_bijection
from conftest import a2_algebra, a3_algebra
from slow_paths import Filtration, _preimage_rows, merge_filtrations, trivial_filtration

CHARS = (2, 3, 5)


def report_line(name: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} ({time.perf_counter() - started:.2f}s)")


@pytest.fixture(scope="module")
def table_reports():
    out = {}
    for p in CHARS:
        out[p], _ = reproduce_table1(p=p)
    return out


@pytest.fixture(scope="module")
def recollements_by_char():
    out = {}
    for p in CHARS:
        alg = a3_algebra(p)
        out[p] = build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
    return out


def test_criterion_01_table1_reproduction(table_reports):
    t0 = time.perf_counter()
    report = table_reports[2]
    ok = True
    try:
        assert report["triangular_matches_quiver"]
        assert report["ok"], report["failures"]
        assert len(report["rows"]) == 12
        subcats = {tuple(r["subcategory"]) for r in report["rows"]}
        assert len(subcats) == 12
        assert all(r["left_schur"] for r in report["rows"])
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"table reproduction took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-1 table reproduction (12 distinct left Schur rows)", ok, t0)


def test_criterion_02_classification_of_rows(table_reports):
    t0 = time.perf_counter()
    ok = True
    try:
        rows = table_reports[2]["rows"]
        not_torf = [r for r in rows if not r["torsion_free"]]
        not_wide = [r for r in rows if not r["wide"]]
        assert len(not_torf) == 2
        assert len(not_wide) == 2
        for r in rows:
            assert r["torsion_free"] == r["b_cofinally_closed"]
            assert r["wide"] == r["b_semibrick"]
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-2 row classification (2 non-torf, 2 non-wide)", ok, t0)


def test_criterion_03_bijection_verification():
    t0 = time.perf_counter()
    ok = True
    try:
        for alg in (a2_algebra(), a3_algebra()):
            u = build_universe(alg, alg.nv)
            report = verify_bijection(u)
            assert report["ok"], report["counterexamples"]
            assert report["laws"]["sim_after_filt"]
            assert report["laws"]["filt_after_sim"]
            assert report["laws"]["wide_matches_semibrick"]
            assert report["laws"]["torf_matches_cc"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"bijection verification took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-3 monobrick/left-Schur bijection round-trips", ok, t0)


def test_criterion_04_counting_cross_checks():
    t0 = time.perf_counter()
    ok = True
    try:
        u2 = build_universe(a2_algebra(), 2)
        mono2 = all_monobricks(u2)
        schur2 = all_left_schur(u2)
        assert schur2.oracle_ran  # dual-route agreement is enforced internally
        assert mono2.counts["monobricks"] == 6
        assert mono2.counts["semibricks"] == 5
        assert mono2.counts["cc_monobricks"] == 5
        assert schur2.counts == {"left_schur": 6, "wide": 5, "torsion_free": 5,
                                 "non_representable_monobricks": 0}
        u3 = build_universe(a3_algebra(), 3)
        mono3 = all_monobricks(u3)
        schur3 = all_left_schur(u3)
        assert schur3.oracle_ran
        assert mono3.counts["cc_monobricks"] == 14
        assert schur3.counts["torsion_free"] == 14
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-4 counting cross-checks (dual routes)", ok, t0)


def test_criterion_05_recollement_axioms(recollements_by_char):
    t0 = time.perf_counter()
    ok = True
    try:
        r = recollements_by_char[2]
        axioms = r.axiom_report()
        assert axioms["ok"], axioms["counterexamples"]
        for law in (
            "adjunction_i_upper", "adjunction_i_shriek",
            "adjunction_j_lower", "adjunction_j_star",
            "i_upper_i_star_id", "i_shriek_i_star_id",
            "j_upper_j_lower_id", "j_upper_j_star_id",
            "i_upper_j_lower_zero", "i_shriek_j_star_zero",
            "im_i_star_equals_ker_j_upper",
        ):
            assert axioms["laws"][law], law
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"axiom sweep took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-5 recollement axioms on every universe member", ok, t0)


def test_criterion_06_exactness_machinery():
    t0 = time.perf_counter()
    ok = True
    try:
        alg = a3_algebra()
        r1 = build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
        exact1, cert1 = r1.is_i_shriek_exact()
        assert exact1 and cert1.structural and cert1.direct
        cons = r1.exactness_consequences_report()
        assert cons["ok"], cons["counterexamples"]
        assert cons["laws"]["i_upper_j_star_zero"]
        assert cons["laws"]["j_intermediate_is_j_star"]
        assert cons["laws"]["canonical_sequence_exact"]
        r2 = build_recollement(alg, IdempotentSpec(alg, (1, 2)), bound=3)
        exact2, cert2 = r2.is_i_shriek_exact()
        assert not exact2 and cert2.witness is not None
        sweep = fuzz_exactness_sweep(count=115, seed=20260810)
        assert sweep["checked"] >= 100, f"only {sweep['checked']} fuzz instances checked"
        assert sweep["ok"], [e for e in sweep["instances"] if not e.get("ok", True)]
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"exactness machinery took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-6 exactness certificates + 100-instance fuzz", ok, t0)


def test_criterion_07_theorem_sweeps():
    t0 = time.perf_counter()
    ok = True
    try:
        alg = a3_algebra()
        r = build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
        for law in ("3.2", "3.3", "3.4", "3.5"):
            res = verify_theorem(r, law)
            assert res["ok"], (law, res["counterexamples"])
            assert not res.get("skipped")
            assert res["pairs_checked"] > 0
        sweep = fuzz_theorem_sweep(count=100, seed=4040,
                                   laws=("3.2", "3.3", "3.4", "3.5"))
        assert sweep["ok"], [e for e in sweep["instances"] if not e.get("ok", True)]
        assert sweep["checked"] >= 60
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"theorem sweeps took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-7 gluing-law sweeps (both directions, + fuzz)", ok, t0)


def _random_filtration(u, m, rng):
    if m.is_zero:
        return trivial_filtration(u, m)
    options = [rows for rows in submodule_rows(m)
               if 0 < sum(r.shape[0] for r in rows)]
    rng.shuffle(options)
    zero_rows = tuple(ff.zeros(0, d) for d in m.dims)
    for rows in options:
        sub, _ = submodule_from_rows(m, list(rows))
        ids = decompose(sub, u)
        if len(ids) != 1:
            continue
        parts = quotient_by_rows(m, list(rows))
        rest = _random_filtration(u, parts.module, rng)
        chain = [zero_rows, tuple(ff.row_space_basis(r, m.p) for r in rows)]
        for upper in rest.chain[1:]:
            chain.append(_preimage_rows(parts.projection, upper))
        return Filtration(u, m, chain, (ids[0],) + rest.classes)
    raise AssertionError("no indecomposable submodule found")


def test_criterion_08_filtration_merge_1000_triples():
    t0 = time.perf_counter()
    ok = True
    try:
        rng = random.Random(123)
        universes = [build_universe(a2_algebra(), 2), build_universe(a3_algebra(), 3)]
        done = 0
        while done < 1000:
            u = rng.choice(universes)
            picks = rng.sample(list(u.ids), k=min(len(u.ids), rng.randint(1, 2)))
            m = direct_sum([u.module(i) for i in picks])
            subs = submodule_rows(m)
            rows = list(subs[rng.randrange(len(subs))])
            sub, incl = submodule_from_rows(m, rows)
            parts = quotient_by_rows(m, rows)
            ses = ShortExactSequence(incl, parts.projection)
            fx = _random_filtration(u, ses.sub, rng)
            fz = _random_filtration(u, ses.quot, rng)
            merged = merge_filtrations(ses, fx, fz)
            assert merged.classes == fx.classes + fz.classes
            assert merged.validate()
            done += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"filtration merges took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-8 constructive filtration merge on 1000 triples", ok, t0)


def test_criterion_09_cross_field_robustness(table_reports, recollements_by_char):
    t0 = time.perf_counter()
    ok = True
    try:
        for p in CHARS:
            report = table_reports[p]
            assert report["ok"], (p, report["failures"])
            assert report["triangular_matches_quiver"]
            assert len(report["rows"]) == 12
            assert sum(1 for r in report["rows"] if not r["torsion_free"]) == 2
            assert sum(1 for r in report["rows"] if not r["wide"]) == 2
            alg = a3_algebra(p)
            u = build_universe(alg, 3)
            bij = verify_bijection(u)
            assert bij["ok"], (p, bij["counterexamples"])
            assert bij["counts"]["monobricks"] == 22
            axioms = recollements_by_char[p].axiom_report()
            assert axioms["ok"], (p, axioms["counterexamples"])
            u2 = build_universe(a2_algebra(p), 2)
            mono2 = all_monobricks(u2)
            assert mono2.counts["monobricks"] == 6
            assert mono2.counts["semibricks"] == 5
    except AssertionError:
        ok = False
        raise
    finally:
        report_line("criterion-9 cross-field robustness (p = 2, 3, 5)", ok, t0)
