"""Each subcommand accepts only the flags it reads, and a flag that the chosen
mode does not read exits 2 with the JSON error; `--edge` builds one universe
and `--cache` caches the universe a command builds."""

import argparse
import json
import re
from pathlib import Path

import pytest

from schurrec import modules, recollements, storage
from schurrec.algebras import IdempotentSpec
from schurrec.census import all_left_schur
from schurrec.cli import build_cli, main
from schurrec.modules import build_universe
from schurrec.recollements import build_recollement
from schurrec.storage import canonical_json, load_algebra_file, save_id_set

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"
A2, A3, D4 = (str(SAMPLES / name) for name in ("a2.json", "a3.json", "d4_p3.json"))
ON_A2 = ["--algebra", A2, "--max-dim", "2"]
COMMANDS = ("indecs", "enumerate", "check", "glue", "verify", "table1", "export-dot")


def run_cli(capsys, argv) -> tuple[int, str]:
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().out


def readme_flags() -> dict[str, set[str]]:
    """Each command's option strings as the README's flag table lists them."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| flags | " + " | ".join(COMMANDS) + " |")
    table = {command: set() for command in COMMANDS}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        shared = set(re.findall(r"--[\w-]+", cells[0]))
        for command, cell in zip(COMMANDS, cells[1:]):
            table[command] |= shared if cell == "✓" else set(re.findall(r"--[\w-]+", cell))
    return table


def parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in build_cli()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in sp._actions for opt in action.option_strings}
                  - {"-h", "--help"}
            for name, sp in sub.choices.items()}


def test_every_command_accepts_the_flags_of_the_readme_table():
    assert parser_flags() == readme_flags()


# command -> the shared flags it does not read, and so does not accept
DROPPED = {
    "indecs": ("--e", "--seed", "--workers", "--allow-unverified-hypothesis"),
    "enumerate": ("--seed", "--workers", "--allow-unverified-hypothesis"),
    "check": ("--format", "--seed", "--workers", "--allow-unverified-hypothesis"),
    "glue": ("--format", "--seed", "--workers"),
    "verify": ("--format", "--allow-unverified-hypothesis"),
    "table1": ("--algebra", "--triangular", "--bimodule", "--e", "--max-dim", "--cache",
               "--seed", "--workers", "--allow-unverified-hypothesis"),
    "export-dot": ("--e", "--format", "--seed", "--workers", "--allow-unverified-hypothesis"),
}
FLAG_VALUES = {
    "--algebra": [A3], "--triangular": [A2, SAMPLES / "point.json"],
    "--bimodule": [SAMPLES / "bimodule_a3.json"], "--e": ["1"], "--max-dim": ["3"],
    "--format": ["tsv"], "--cache": ["cache.json"], "--seed": ["3"], "--workers": ["2"],
    "--allow-unverified-hypothesis": [],
}


@pytest.fixture
def base_argv(tmp_path):
    """command -> an invocation that runs and exits 0."""
    u2 = build_universe(load_algebra_file(A2), 2)
    save_id_set(tmp_path / "set.json", u2, u2.ids, "subcategory")
    r = build_recollement(load_algebra_file(A3), IdempotentSpec(load_algebra_file(A3), (0,)),
                          bound=3)
    save_id_set(tmp_path / "ey.json", r.u_b, r.u_b.ids, "subcategory")
    save_id_set(tmp_path / "ez.json", r.u_c, r.u_c.ids, "subcategory")
    return {
        "indecs": ["indecs", *ON_A2],
        "enumerate": ["enumerate", *ON_A2],
        "check": ["check", *ON_A2, "--candidate", tmp_path / "set.json"],
        "glue": ["glue", "--algebra", A3, "--max-dim", "3", "--e", "1",
                 "--e-y", tmp_path / "ey.json", "--e-z", tmp_path / "ez.json"],
        "verify": ["verify", *ON_A2, "--theorem", "2.5"],
        "table1": ["table1"],
        "export-dot": ["export-dot", *ON_A2, "--subcategory", tmp_path / "set.json"],
    }


def assert_usage_error(code: int, out: str, flag: str) -> None:
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InputError" and flag in error["message"]


@pytest.mark.parametrize("command", COMMANDS)
def test_base_invocations_run(command, base_argv, capsys):
    assert run_cli(capsys, base_argv[command])[0] == 0


def test_thirty_pairs_are_dropped():
    assert sum(map(len, DROPPED.values())) == 30
    for command, flags in DROPPED.items():
        assert not set(flags) & parser_flags()[command]


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in DROPPED.items() for f in flags])
def test_a_flag_the_command_does_not_read_exits_2(command, flag, base_argv, capsys):
    code, out = run_cli(capsys, [*base_argv[command], flag, *FLAG_VALUES[flag]])
    assert_usage_error(code, out, flag)


def test_glue_variant_is_gone(base_argv, capsys):
    code, out = run_cli(capsys, [*base_argv["glue"], "--kind", "monobrick", "--variant", "cc"])
    assert_usage_error(code, out, "--variant")


# (arguments, the flag the mode does not read)
MODE_CHECKS = {
    "fuzz-with-2.5": (["verify", "--theorem", "2.5", "--fuzz", "5", *ON_A2], "--fuzz"),
    "fuzz-with-bijection": (["verify", "--theorem", "bijection", "--fuzz", "5", *ON_A2],
                            "--fuzz"),
    "fuzz-with-axioms": (["verify", "--theorem", "axioms", "--e", "2", "--fuzz", "5", *ON_A2],
                         "--fuzz"),
    "seed-without-fuzz": (["verify", "--theorem", "3.2", "--e", "2", "--seed", "3", *ON_A2],
                          "--seed"),
    "workers-without-fuzz": (["verify", "--theorem", "exactness", "--e", "2", "--workers", "2",
                              *ON_A2], "--workers"),
    "seed-with-fuzz-0": (["verify", "--theorem", "3.4", "--e", "2", "--fuzz", "0", "--seed", "3",
                          *ON_A2], "--seed"),
    "e-with-2.5": (["verify", "--theorem", "2.5", "--e", "2", *ON_A2], "--e"),
    "e-on-enumerate-without-edge": (["enumerate", "--e", "2", *ON_A2], "--e"),
}


@pytest.mark.parametrize("case", MODE_CHECKS)
def test_a_flag_the_mode_does_not_read_exits_2(case, capsys):
    argv, flag = MODE_CHECKS[case]
    assert_usage_error(*run_cli(capsys, argv), flag)


def test_e_on_check_without_edge_exits_2(base_argv, capsys):
    assert_usage_error(*run_cli(capsys, [*base_argv["check"], "--e", "2"]), "--e")


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "3.4", "--e", "2", "--fuzz", "2", "--seed", "3", "--workers", "1"],
    ["verify", "--theorem", "exactness", "--e", "2", "--fuzz", "2", "--seed", "3"],
    ["enumerate", "--edge", "z", "--e", "2"],
])
def test_the_same_flags_run_where_they_are_read(argv, capsys):
    assert run_cli(capsys, [*argv, *ON_A2])[0] == 0


def count_builds(monkeypatch) -> list:
    """The algebras of the build_universe calls from here on, through every binding."""
    built = []

    def counting(algebra, *args, **kwargs):
        built.append(algebra)
        return build_universe(algebra, *args, **kwargs)

    for module in (modules, storage, recollements):
        monkeypatch.setattr(module, "build_universe", counting)
    return built


EDGE_CASES = {"kA3-e1": (A3, 3, "1"), "D4-p3-b6-e234": (D4, 6, "2,3,4")}


@pytest.mark.parametrize("edge", ["y", "z"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_census_builds_only_its_universe(case, edge, monkeypatch, capsys):
    """enumerate --edge builds A/AeA (y) or eAe (z) and its universe alone, and
    lists the census of that edge of the recollement."""
    path, bound, e = EDGE_CASES[case]
    alg = load_algebra_file(path)
    r = build_recollement(alg, IdempotentSpec(alg, tuple(
        alg.vertex_labels.index(v) for v in e.split(","))), bound=bound)
    u = r.u_b if edge == "y" else r.u_c
    res = all_left_schur(u)
    built = count_builds(monkeypatch)
    code, out = run_cli(capsys, ["enumerate", "--edge", edge, "--e", e, "--algebra", path,
                                 "--max-dim", bound])
    assert code == 0
    assert [b.algebra_hash for b in built] == [u.algebra.algebra_hash]
    report = json.loads(out)
    assert report["universe_algebra_hash"] == u.algebra.algebra_hash
    assert report["counts"] == res.counts
    assert report["entries"] == json.loads(canonical_json(
        [{"ids": list(entry.ids), "flags": entry.flags} for entry in res.entries]))


@pytest.mark.parametrize("command", ["glue", "verify"])
def test_recollement_commands_cache_the_a_universe(command, base_argv, tmp_path,
                                                  monkeypatch, capsys):
    """glue and verify --theorem 3.2 write the A-universe to --cache, and a
    rerun reads it back, building only the two edge universes, and prints the
    same report."""
    cache = tmp_path / "cache.json"
    argv = {"glue": base_argv["glue"],
            "verify": ["verify", "--theorem", "3.2", "--e", "1", "--algebra", A3,
                       "--max-dim", "3"]}[command] + ["--cache", cache]
    first = run_cli(capsys, argv)
    assert first[0] == 0
    alg = load_algebra_file(A3)
    data = json.loads(cache.read_text())
    assert (data["algebra_hash"], data["bound"]) == (alg.algebra_hash, 3)
    built = count_builds(monkeypatch)
    assert run_cli(capsys, argv) == first
    assert len(built) == 2 and alg.algebra_hash not in [b.algebra_hash for b in built]
