import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schurrec.algebras import IdempotentSpec
from schurrec.cli import RunConfig, main
from schurrec.errors import InputError
from schurrec.modules import build_universe, is_isomorphic
from schurrec.recollements import build_recollement
from schurrec.storage import (
    dot_graph,
    load_algebra_file,
    load_id_set,
    load_triangular,
    load_universe,
    save_id_set,
    save_universe,
)
from conftest import a2_algebra, a3_algebra
from slow_paths import hom_dims

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


# --- algebra files ------------------------------------------------------------


def test_load_algebra_sample_a3():
    alg = load_algebra_file(SAMPLES / "a3.json")
    assert alg.dim == 6
    assert alg.vertex_labels == ("1", "2", "3")


def test_load_algebra_char_override():
    alg = load_algebra_file(SAMPLES / "a3.json", char_override=5)
    assert alg.p == 5


def test_load_algebra_with_relations():
    alg = load_algebra_file(SAMPLES / "loop_square_zero.json")
    assert alg.dim == 2


def test_load_algebra_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"quiver\": {\"vertices\": 3}}")
    with pytest.raises(InputError):
        load_algebra_file(bad)


def test_load_triangular_matches_quiver_route():
    alg, data = load_triangular(SAMPLES / "a2.json", SAMPLES / "point.json",
                                SAMPLES / "bimodule_a3.json")
    assert alg.dim == 6
    from schurrec.algebras import find_algebra_isomorphism

    assert find_algebra_isomorphism(alg, a3_algebra()) is not None


# --- universe cache -------------------------------------------------------------


def test_universe_cache_roundtrip(tmp_path):
    alg = a2_algebra()
    u = build_universe(alg, 2)
    path = tmp_path / "u.json"
    save_universe(u, path)
    loaded = load_universe(alg, path)
    assert loaded is not None
    assert len(loaded) == len(u)
    for i in u.ids:
        assert is_isomorphic(loaded.module(i), u.module(i))
    assert (hom_dims(loaded) == hom_dims(u)).all()


def test_universe_cache_saves_arrows_only(tmp_path):
    alg = a3_algebra()
    path = tmp_path / "u.json"
    save_universe(build_universe(alg, 3), path)
    data = json.loads(path.read_text())
    arrows = sorted(alg.labels[a] for a in alg.arrows)
    assert "hom_dims" not in data
    assert all(sorted(entry["act"]) == arrows for entry in data["modules"])


def test_universe_cache_in_older_format_loads(tmp_path, capsys):
    # older caches stored a block for every non-vertex basis element and the Hom table
    alg = a3_algebra()
    u = build_universe(alg, 3)
    path = tmp_path / "u.json"
    save_universe(u, path)
    data = json.loads(path.read_text())
    for entry, m in zip(data["modules"], u.modules):
        entry["act"] = {alg.labels[k]: m.act_block(k).tolist() for k in range(alg.nv, alg.dim)}
    assert any(len(entry["act"]) > len(alg.arrows) for entry in data["modules"])
    data["hom_dims"] = hom_dims(u).tolist()
    path.write_text(json.dumps(data))
    loaded = load_universe(alg, path)
    assert capsys.readouterr().err == ""
    assert (loaded.bound, loaded.strategy, len(loaded)) == (u.bound, u.strategy, len(u))
    for m, n in zip(loaded.modules, u.modules):
        assert m.dims == n.dims
        assert all(np.array_equal(m.act_block(k), n.act_block(k)) for k in range(alg.dim))


def test_universe_cache_hash_mismatch(tmp_path, capsys):
    u = build_universe(a2_algebra(), 2)
    path = tmp_path / "u.json"
    save_universe(u, path)
    other = a3_algebra()
    assert load_universe(other, path) is None
    assert "different algebra" in capsys.readouterr().err


# --- id-set files ----------------------------------------------------------------


def test_id_set_roundtrip(tmp_path):
    u = build_universe(a2_algebra(), 2)
    path = tmp_path / "s.json"
    save_id_set(path, u, (2, 0), "subcategory")
    ids, kind = load_id_set(path, u)
    assert ids == [0, 2]
    assert kind == "subcategory"


def test_id_set_wrong_universe(tmp_path):
    u2 = build_universe(a2_algebra(), 2)
    u3 = build_universe(a3_algebra(), 3)
    path = tmp_path / "s.json"
    save_id_set(path, u2, (0,), "brickset")
    with pytest.raises(InputError):
        load_id_set(path, u3)


# --- DOT --------------------------------------------------------------------------


DOT_NODE = re.compile(r'^"([^"]+)"\s*\[(.*)\]$')
DOT_EDGE = re.compile(r'^"([^"]+)"\s*->\s*"([^"]+)"\s*\[(.*)\]$')


def parse_dot(text: str):
    """Minimal independent DOT reader: nodes with attrs, directed edges with attrs."""
    assert text.startswith("digraph")
    body = text[text.index("{") + 1 : text.rindex("}")]
    nodes, edges = {}, []

    def attrs_of(blob: str) -> dict:
        out = {}
        for part in re.findall(r'(\w+)=("[^"]*"|\w+)', blob):
            out[part[0]] = part[1].strip('"')
        return out

    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt or stmt.startswith("node "):
            continue
        m = DOT_EDGE.match(stmt)
        if m:
            edges.append((m.group(1), m.group(2), attrs_of(m.group(3))))
            continue
        m = DOT_NODE.match(stmt)
        if m:
            nodes[m.group(1)] = attrs_of(m.group(2))
            continue
        raise AssertionError(f"unparseable DOT statement: {stmt!r}")
    return nodes, edges


def test_dot_graph_full_a2_with_simple_monobrick():
    u = build_universe(a2_algebra(), 2)
    ids = {tuple(u.module(i).dims): i for i in u.ids}
    mono = [ids[(1, 0)], ids[(0, 1)]]
    text = dot_graph(u, list(u.ids), mono)
    nodes, edges = parse_dot(text)
    assert len(nodes) == 3
    black = [n for n, a in nodes.items() if a.get("fillcolor") == "black"]
    assert len(black) == 2
    # socle inclusion 3 -> 2/3 is mono, projection 2/3 -> 2 is epi
    kinds = {(s, t): a["homclass"] for s, t, a in edges}
    assert kinds[(f"M{ids[(0,1)]}", f"M{ids[(1,1)]}")] == "mono"
    assert kinds[(f"M{ids[(1,1)]}", f"M{ids[(1,0)]}")] == "epi"


def test_dot_zero_subcategory_is_empty_graph():
    u = build_universe(a2_algebra(), 2)
    nodes, edges = parse_dot(dot_graph(u, [], []))
    assert nodes == {} and edges == []


def test_dot_grey_mode_shows_outsiders():
    u = build_universe(a2_algebra(), 2)
    text = dot_graph(u, [0], [0], outside="grey")
    nodes, _ = parse_dot(text)
    assert len(nodes) == 3
    assert sum(1 for a in nodes.values() if a.get("fillcolor") == "grey") == 2


# --- CLI ---------------------------------------------------------------------------


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_indecs(capsys):
    code, out = run_cli(capsys, "indecs", "--algebra", str(SAMPLES / "a3.json"),
                        "--max-dim", "3")
    assert code == 0
    report = json.loads(out)
    assert len(report["modules"]) == 6
    assert all(m["brick"] for m in report["modules"])


def test_cli_indecs_respects_bound(capsys):
    code, out = run_cli(capsys, "indecs", "--algebra", str(SAMPLES / "a2.json"),
                        "--max-dim", "1")
    assert code == 0
    assert len(json.loads(out)["modules"]) == 2


def test_cli_byte_identical_reruns(capsys):
    args = ("enumerate", "--algebra", str(SAMPLES / "a2.json"), "--max-dim", "2",
            "--kind", "monobricks")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["counts"]["monobricks"] == 6


def test_cli_verify_bijection(capsys):
    code, out = run_cli(capsys, "verify", "--algebra", str(SAMPLES / "a2.json"),
                        "--max-dim", "2", "--theorem", "2.5")
    assert code == 0
    assert json.loads(out)["bijection"]["ok"]


def test_cli_verify_law_with_alias(capsys):
    code, out = run_cli(capsys, "verify", "--algebra", str(SAMPLES / "a3.json"),
                        "--max-dim", "3", "--e", "1", "--theorem", "torf")
    assert code == 0
    assert json.loads(out)["theorem"]["ok"]


def test_cli_verify_axioms(capsys):
    code, out = run_cli(capsys, "verify", "--algebra", str(SAMPLES / "a3.json"),
                        "--max-dim", "3", "--e", "1", "--theorem", "axioms")
    assert code == 0
    assert json.loads(out)["axioms"]["ok"]


def test_cli_glue_flow(tmp_path, capsys):
    alg = a3_algebra()
    r = build_recollement(alg, IdempotentSpec(alg, (0,)), bound=3)
    ey = tmp_path / "ey.json"
    ez = tmp_path / "ez.json"
    save_id_set(ey, r.u_b, list(r.u_b.ids), "subcategory")
    save_id_set(ez, r.u_c, list(r.u_c.ids), "subcategory")
    out_file = tmp_path / "glued.json"
    code, out = run_cli(capsys, "glue", "--algebra", str(SAMPLES / "a3.json"),
                        "--max-dim", "3", "--e", "1",
                        "--e-y", str(ey), "--e-z", str(ez),
                        "--out", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["validated"]
    assert report["result"]["ids"] == list(range(6))
    saved = json.loads(out_file.read_text())
    assert saved["ids"] == list(range(6))


@pytest.mark.parametrize("e, marked", [("2,3", {"schur", "wide", "cc"}), ("1", set())])
def test_cli_glue_marks_only_a_hypothesis_it_skipped(e, marked, tmp_path, capsys):
    """Under the override a report is marked unverified exactly where its law
    needs i^! exact and it is not: on kA3, i^! is not exact at e = {2, 3} and
    is at e = {1}, and torsion-free and plain brick gluing need no hypothesis."""
    alg = load_algebra_file(SAMPLES / "a3.json")
    r = build_recollement(alg, IdempotentSpec(alg, tuple(
        alg.vertex_labels.index(v) for v in e.split(","))), bound=3)
    ey, ez = tmp_path / "ey.json", tmp_path / "ez.json"
    save_id_set(ey, r.u_b, r.u_b.ids[:1], "subcategory")
    save_id_set(ez, r.u_c, r.u_c.ids[:1], "subcategory")
    for kind in ("schur", "wide", "torf", "monobrick", "cc", "semibrick"):
        chosen = ["--kind", "cc-monobrick" if kind == "cc" else kind]
        code, out = run_cli(capsys, "glue", "--algebra", str(SAMPLES / "a3.json"),
                            "--max-dim", "3", "--e", e, "--e-y", str(ey), "--e-z", str(ez),
                            *chosen, "--allow-unverified-hypothesis")
        assert code == 0
        assert json.loads(out)["hypothesis_unverified"] == (kind in marked)


def test_cli_check_brickset(tmp_path, capsys):
    u = build_universe(a2_algebra(), 2)
    ids = {tuple(u.module(i).dims): i for i in u.ids}
    cand = tmp_path / "mono.json"
    save_id_set(cand, u, (ids[(0, 1)], ids[(1, 1)]), "brickset")
    code, out = run_cli(capsys, "check", "--algebra", str(SAMPLES / "a2.json"),
                        "--max-dim", "2", "--candidate", str(cand))
    assert code == 0
    flags = json.loads(out)["flags"]
    assert flags["monobrick"] and not flags["semibrick"] and flags["cofinally_closed"]


def test_cli_export_dot(tmp_path, capsys):
    u = build_universe(a2_algebra(), 2)
    sub = tmp_path / "sub.json"
    save_id_set(sub, u, list(u.ids), "subcategory")
    code, out = run_cli(capsys, "export-dot", "--algebra", str(SAMPLES / "a2.json"),
                        "--max-dim", "2", "--subcategory", str(sub))
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(nodes) == 3
    assert len([n for n, a in nodes.items() if a["fillcolor"] == "black"]) == 2


def test_cli_table1_tsv(capsys):
    code, out = run_cli(capsys, "table1", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13  # header + 12 rows


def test_cli_missing_file_is_usage_error(capsys):
    code, out = run_cli(capsys, "indecs", "--algebra", "/nonexistent.json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def with_entry(name: str, key: str, value, tmp_path: Path) -> str:
    """Path of a copy of a sample file with one top-level entry replaced."""
    data = json.loads((SAMPLES / name).read_text())
    data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def json_file(payload, tmp_path: Path) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return str(path)


def on_triangular(bimodule: str) -> list[str]:
    return ["indecs", "--triangular", str(SAMPLES / "a2.json"), str(SAMPLES / "point.json"),
            "--bimodule", bimodule]


MALFORMED = {
    "field-char-4": lambda tmp: ["indecs", "--algebra",
                                 with_entry("a3.json", "field_char", 4, tmp)],
    "char-6": lambda tmp: ["indecs", "--algebra", str(SAMPLES / "a3.json"), "--char", "6"],
    "ragged-bimodule-matrix": lambda tmp: on_triangular(
        with_entry("bimodule_a3.json", "left", {"e_1": [[1, 0], [0]]}, tmp)),
    "3d-bimodule-matrix": lambda tmp: on_triangular(
        with_entry("bimodule_a3.json", "left", {"e_1": [[[1, 0], [0, 1]]]}, tmp)),
    "null-bimodule-entry": lambda tmp: on_triangular(
        with_entry("bimodule_a3.json", "left", {"e_1": [[1, None], [0, 1]]}, tmp)),
    "relation-coeff-x": lambda tmp: ["indecs", "--algebra", with_entry(
        "a3.json", "relations", [[{"coeff": "x", "path": ["a12", "a23"]}]], tmp)],
    "relations-number": lambda tmp: ["indecs", "--algebra", with_entry(
        "a3.json", "relations", 5, tmp)],
    "relation-number": lambda tmp: ["indecs", "--algebra", with_entry(
        "a3.json", "relations", [5], tmp)],
    "bimodule-list": lambda tmp: on_triangular(json_file([1, 0], tmp)),
    "bimodule-left-list": lambda tmp: on_triangular(
        with_entry("bimodule_a3.json", "left", [[1, 0], [0, 1]], tmp)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_is_usage_error(case, tmp_path, capsys):
    code, out = run_cli(capsys, *MALFORMED[case](tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def test_cli_budget_error_exit_code(capsys):
    code, out = run_cli(capsys, "enumerate", "--algebra", str(SAMPLES / "a3.json"),
                        "--max-dim", "3", "--kind", "monobricks", "--threshold", "1")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


def test_cli_torf_walk_exits_on_its_state_budget(capsys, monkeypatch):
    """Each torsion-free class the walk finds is one state: A3 has 14, so a
    budget of 5 states stops at the sixth."""
    budgets = RunConfig.thresholds
    monkeypatch.setattr(RunConfig, "thresholds",
                        lambda cfg: replace(budgets(cfg), enumeration_states=5))
    code, out = run_cli(capsys, "enumerate", "--algebra", str(SAMPLES / "a3.json"),
                        "--max-dim", "3", "--kind", "torf")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "BudgetExceeded",
        "message": "too many torsion-free classes (needed 6, limit 5)"}


def test_cli_cache_reuse(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ("indecs", "--algebra", str(SAMPLES / "a3.json"), "--max-dim", "3",
            "--cache", str(cache))
    code1, out1 = run_cli(capsys, *args)
    assert code1 == 0 and cache.exists()
    code2, out2 = run_cli(capsys, *args)
    assert code2 == 0
    assert out1 == out2


def test_cli_cache_cut_to_smaller_bound(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    base = ("indecs", "--algebra", str(SAMPLES / "a3.json"))
    run_cli(capsys, *base, "--max-dim", "3", "--cache", str(cache))
    code, cached = run_cli(capsys, *base, "--max-dim", "2", "--cache", str(cache))
    _, fresh = run_cli(capsys, *base, "--max-dim", "2")
    assert code == 0
    assert json.loads(cached)["modules"] == json.loads(fresh)["modules"]
    assert json.loads(cached)["bound"] == 2


def a3_cache(tmp_path, capsys) -> tuple[Path, tuple, str]:
    cache = tmp_path / "cache.json"
    args = ("indecs", "--algebra", str(SAMPLES / "a3.json"), "--max-dim", "3",
            "--cache", str(cache))
    code, fresh = run_cli(capsys, *args)
    assert code == 0
    return cache, args, fresh


def test_cli_cache_without_module_dims_is_rebuilt(tmp_path, capsys):
    cache, args, fresh = a3_cache(tmp_path, capsys)
    data = json.loads(cache.read_text())
    del data["modules"][0]["dims"]
    cache.write_text(json.dumps(data))
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    assert "malformed" in captured.err
    assert "dims" in json.loads(cache.read_text())["modules"][0]


def test_cli_cache_without_an_arrow_is_rebuilt(tmp_path, capsys):
    cache, args, fresh = a3_cache(tmp_path, capsys)
    data = json.loads(cache.read_text())
    entry = data["modules"][-1]
    del entry["act"][next(iter(entry["act"]))]
    cache.write_text(json.dumps(data))
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    assert "malformed" in captured.err


def test_cli_cache_with_misshapen_action_is_rebuilt(tmp_path, capsys):
    cache, args, fresh = a3_cache(tmp_path, capsys)
    data = json.loads(cache.read_text())
    entry = next(e for e in data["modules"] if e["act"])
    lab = next(iter(entry["act"]))
    entry["act"][lab] = [[1, 0, 1]]
    cache.write_text(json.dumps(data))
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    assert "malformed" in captured.err


@pytest.mark.parametrize("payload", ["list", "no_ids", "non_integer_ids"])
def test_cli_malformed_id_set_is_usage_error(tmp_path, capsys, payload):
    u = build_universe(a2_algebra(), 2)
    cand = tmp_path / "cand.json"
    save_id_set(cand, u, (0,), "brickset")
    data = json.loads(cand.read_text())
    if payload == "list":
        data = [0]
    elif payload == "no_ids":
        del data["ids"]
    else:
        data["ids"] = [0, "1", 1.5]
    cand.write_text(json.dumps(data))
    code, out = run_cli(capsys, "check", "--algebra", str(SAMPLES / "a2.json"),
                        "--max-dim", "2", "--candidate", str(cand))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"
