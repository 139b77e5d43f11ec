"""Oracle formulas, against hand counts and against short engine runs.

Run with:  python3 -m pytest bench/tests
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_closed_forms():
    assert [oracles.catalan(n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert [oracles.large_schroeder(n) for n in range(5)] == [1, 2, 6, 22, 90]
    assert oracles.closed_points_p1(3, 2) == 3  # x^2+1, x^2+x+2, x^2+2x+2
    assert oracles.closed_points_p1(2, 3) == 2
    assert sum(oracles.kronecker_dims(2, 4).values()) == 11
    assert sum(oracles.kronecker_dims(3, 4).values()) == 15
    assert oracles.kronecker_dims(3, 4)[(2, 2)] == 7
    _, d4_vertices, d4_arrows, _ = inputs.ALGEBRAS["d4"]
    assert len(oracles.tits_positive_roots(d4_vertices, d4_arrows, 4)) == 11
    assert len(oracles.tits_positive_roots(d4_vertices, d4_arrows, 9)) == 12
    assert oracles.linear_a_counts(4) == {"bricks": 10, "monobricks": 90, "left_schur": 90,
                                          "semibricks": 42, "wide": 42, "torsion_free": 42}


def test_seeded_inputs_are_relabellings():
    a, _ = inputs.algebra_document("kronecker", 1)
    b, _ = inputs.algebra_document("kronecker", 2)
    assert a != b and a == inputs.algebra_document("kronecker", 1)[0]
    assert len(a["quiver"]["arrows"]) == len(b["quiver"]["arrows"]) == 2


def cli_json(argv):
    code, text = workloads.cli_call(argv)()
    assert code == 0, text
    return json.loads(text)


def test_kronecker_p2_bound4_matches_the_oracle(tmp_path):
    doc, vmap = inputs.algebra_document("kronecker", 5)
    doc["field_char"] = 2
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(doc))
    report = cli_json(["indecs", "--algebra", str(path), "--max-dim", "4"])
    found = workloads.labelled_dims(report)
    assert sum(found.values()) == 11
    want = oracles.kronecker_dims(2, 4)
    assert found == workloads.Counter({tuple(sorted(((vmap["1"], x), (vmap["2"], y)))): n
                                       for (x, y), n in want.items()})


A3 = {"field_char": 2,
      "quiver": {"vertices": ["1", "2", "3"],
                 "arrows": [{"name": "a", "from": "1", "to": "2"},
                            {"name": "b", "from": "2", "to": "3"}]},
      "relations": []}


def test_linear_a3_census_counts(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3))
    schur = cli_json(["enumerate", "--kind", "left-schur", "--algebra", str(path),
                      "--max-dim", "3"])
    want = oracles.linear_a_counts(3)
    assert len(schur["entries"]) == want["left_schur"] == 22
    assert schur["counts"]["wide"] == want["wide"] == 14
    assert len({tuple(e["flags"]["monobrick"]) for e in schur["entries"]
                if len(e["flags"]["monobrick"]) == 1}) == want["bricks"]


def traced_metrics(run):
    tracer = Tracer()
    try:
        assert layers.install(tracer) == []
        run()
    finally:
        tracer.uninstall()
    return {name: m["value"] for name, m in layers.metrics(tracer, {}, 0.0).items()}


def test_tracer_reaches_the_layers_each_workload_uses(tmp_path):
    kron = tmp_path / "kronecker.json"
    doc, _ = inputs.algebra_document("kronecker", 0)
    doc["field_char"] = 2
    kron.write_text(json.dumps(doc))
    a3 = tmp_path / "a3.json"
    a3.write_text(json.dumps(A3))

    walls = traced_metrics(lambda: cli_json(["indecs", "--algebra", str(kron),
                                             "--max-dim", "3"]))
    census = traced_metrics(lambda: cli_json(["enumerate", "--kind", "wide", "--algebra",
                                              str(a3), "--max-dim", "3"]))
    fuzz = traced_metrics(workloads.fuzz_call("exactness", workloads.FUZZ_EXACTNESS_SEED))
    recollement = ["recollements.build.self_s", "recollements.exactness.s",
                   "recollements.exactness.sequences", "recollements.apply_to_morphism.calls"]
    assert walls["modules.brute_force.tuples"] > 0
    assert census["modules.brute_force.tuples"] == 0
    assert census["census.oracle_subsets"] == 2 ** 6 * 2  # all_wide runs all_left_schur
    assert census["subcats.ext_middles.calls"] > 0
    assert all(fuzz[name] > 0 for name in recollement)
    assert not any(walls[name] or census[name] for name in recollement)


def test_metric_lists_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
