import json
import random
from pathlib import Path

import pytest

from schurrec.algebras import Quiver, algebra_from_quiver
from schurrec.census import (
    fuzz_exactness_sweep,
    random_triangular_instance,
)
from schurrec.cli import main
from schurrec.errors import BudgetExceeded, InputError, UniverseExhausted
from schurrec.modules import build_universe
from schurrec.subcats import verify_bijection

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def test_analytic_strategy_requires_linear_quiver(loop_sq):
    with pytest.raises(InputError):
        build_universe(loop_sq, 2, "analytic-typeA")


def test_analytic_strategy_rejects_relations():
    q = Quiver(("1", "2", "3"),
               (("a", "1", "2"), ("b", "2", "3")))
    alg = algebra_from_quiver(q, [[(1, ["a", "b"])]], 2)
    with pytest.raises(InputError):
        build_universe(alg, 3, "analytic-typeA")
    u = build_universe(alg, 3)  # auto falls back to the builder by extensions
    assert u.strategy == "extensions"
    # the length-2 path dies, so the long interval module is gone
    assert len(u) == 5


def test_unknown_strategy_rejected(ka2):
    with pytest.raises(InputError):
        build_universe(ka2, 2, "sideways")


def test_fuzz_worker_pool_matches_sequential():
    seq = fuzz_exactness_sweep(6, seed=5150, workers=1)
    par = fuzz_exactness_sweep(6, seed=5150, workers=2)
    assert seq == par


def test_fuzz_bijection_counting_on_random_instances():
    # the counting corollaries (#left Schur = #monobricks etc.) on fuzzed
    # triangular algebras; instances outgrowing the bound are skipped
    rng = random.Random(314)
    checked = 0
    for _ in range(12):
        alg, _ = random_triangular_instance(rng)
        try:
            u = build_universe(alg, 3)
            report = verify_bijection(u)
        except (BudgetExceeded, UniverseExhausted):
            continue
        assert report["ok"], report["counterexamples"]
        assert report["counts"]["left_schur"] == report["counts"]["representable_monobricks"]
        # wide/semibrick and torf/cc pairings hold regardless of summand issues
        assert report["counts"]["wide"] == report["counts"]["semibricks"]
        assert report["counts"]["torsion_free"] == report["counts"]["cc_monobricks"]
        checked += 1
    assert checked >= 6


def test_fuzz_finds_non_summand_closed_filt_instance():
    # over b1 -> b2 <- c1 the monobrick {S_b2, [b1 b2], [b1 b2 c1]} has a
    # Filt that is not summand-closed; the census must report it as
    # non-representable instead of merging it into another closure
    rng = random.Random(314)
    found = False
    for _ in range(12):
        alg, _ = random_triangular_instance(rng)
        try:
            u = build_universe(alg, 3)
            report = verify_bijection(u)
        except (BudgetExceeded, UniverseExhausted):
            continue
        if report["non_representable"]:
            found = True
            assert report["ok"], report["counterexamples"]
    assert found


def test_cli_verify_exactness_with_fuzz(capsys):
    code = main(["verify", "--algebra", str(SAMPLES / "a3.json"), "--max-dim", "3",
                 "--e", "1", "--theorem", "exactness", "--fuzz", "4", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["exact"]
    assert report["consequences"]["ok"]
    assert report["fuzz"]["ok"]


def test_cli_verify_rejects_unknown_target(capsys):
    code = main(["verify", "--algebra", str(SAMPLES / "a3.json"),
                 "--e", "1", "--theorem", "9.9"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "InputError"


def test_cli_infinite_dimensional_quotient(tmp_path, capsys):
    bad = tmp_path / "free_loop.json"
    bad.write_text(json.dumps({
        "field_char": 2,
        "quiver": {"vertices": ["1"],
                   "arrows": [{"name": "x", "from": "1", "to": "1"}]},
        "relations": [],
    }))
    code = main(["indecs", "--algebra", str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "InfiniteDimensional"
    assert "x" in out["error"]["message"]


def test_cli_degenerate_idempotent_full_set(capsys):
    # e = all vertices: mod B is the zero category; gluing still works
    code = main(["verify", "--algebra", str(SAMPLES / "a3.json"), "--max-dim", "3",
                 "--e", "1,2,3", "--theorem", "3.4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["theorem"]["ok"]


def test_cli_table1_writes_row_diagrams(tmp_path, capsys):
    code = main(["table1", "--dot-dir", str(tmp_path / "rows")])
    capsys.readouterr()
    assert code == 0
    dots = sorted((tmp_path / "rows").glob("row*.dot"))
    assert len(dots) == 12
    assert dots[0].read_text().startswith("digraph row0")


def test_report_embeds_config_and_version(capsys):
    code = main(["indecs", "--algebra", str(SAMPLES / "a2.json"), "--max-dim", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["version"]
    assert report["config"]["command"] == "indecs"
    assert report["config"]["max_dim"] == 2
    assert report["algebra_hash"]
    assert report["bound"] == 2
