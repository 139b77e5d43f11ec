"""CLI reports pinned by their sha256, so a refactor that claims byte-identical
reports is checked on every run.

The digests were taken before the universe took over the search budgets of
its census and predicate functions.  `config.algebra`, `config.triangular` and
`config.bimodule` hold the paths the files were given by, so each is replaced
by the file's basename before hashing.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from schurrec.algebras import IdempotentSpec
from schurrec.census import fuzz_exactness_sweep, fuzz_theorem_sweep
from schurrec.cli import main
from schurrec.modules import build_universe
from schurrec.recollements import build_recollement
from schurrec.storage import canonical_json, load_algebra_file, save_id_set

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
A3 = str(SAMPLES / "a3.json")
ON_A3 = ["--algebra", A3, "--max-dim", "3"]
D4 = str(SAMPLES / "d4_p3.json")
# linear kA4 with e = {1, 2, 3}: the corner C = kA3 has a basis path that is no arrow
ON_A4 = ["--e", "1,2,3", "--algebra", str(SAMPLES / "a4.json"), "--max-dim", "4"]

# name -> (cli arguments, sha256 of the report)
PINNED = {
    "table1": (
        ["table1", "--char", "2"],
        "319f96cef841d7afbc18712c9f37da81160b51e199b29273c689227b86f0bb3e"),
    "enumerate-left-schur": (
        ["enumerate", "--kind", "left-schur", *ON_A3],
        "5f0c7d5eed28fa34fac3a7b6cca2c73e8bea385ffa6eb42ebb354119ef7b63c5"),
    "enumerate-wide": (
        ["enumerate", "--kind", "wide", *ON_A3],
        "aa44c4cd4481fee4802e5c8987f5c807298674fa98ce3e94841c7609756f9153"),
    "enumerate-torf": (
        ["enumerate", "--kind", "torf", *ON_A3],
        "900c70fc38aac680881087b8931a37d135a8bc30b06a3b02a90de9db06cf8430"),
    "verify-2.5": (
        ["verify", "--theorem", "2.5", *ON_A3],
        "50014fab260b1e91db11ce30724a7f843bed01b3cfbbeabac2aeda0490991624"),
    "verify-3.2": (
        ["verify", "--theorem", "3.2", "--e", "1", *ON_A3],
        "2fc15f6855e5b97c4a2a43604e767ba87df7a9b8322069d037910bf5f0849717"),
    "verify-3.2-fuzz-5": (
        ["verify", "--theorem", "3.2", "--e", "1", *ON_A3, "--fuzz", "5"],
        "4376082fa96a83a0a0cd22e6084094e50bfaae00d53ef72170557299c7e10d31"),
    "enumerate-torf-subset-cap-1": (
        ["enumerate", "--kind", "torf", "--subset-cap", "1", *ON_A3],
        "1a17adeeb8c9e049f505939fa77b4077d8ab98528ba286ed0d7d57ed0737d6ab"),
    # taken before the recollement laws moved to the linear isomorphism test
    "verify-axioms": (
        ["verify", "--theorem", "axioms", "--e", "1", *ON_A3],
        "1d21c4734c435a8b8b2aa976171e95370025af18082b5b597e174485b49d3c57"),
    "verify-exactness-fuzz-5": (
        ["verify", "--theorem", "exactness", "--e", "1", *ON_A3, "--fuzz", "5"],
        "21ce3c61c6de588a8ca65ddc4e408888e6638e52e23959e73ae6480d682f13c9"),
    # taken before the filtration search skipped submodules of no class's
    # dimension vector; D4 over F_3 at bound 6 runs that search
    "enumerate-left-schur-d4-b6": (
        ["enumerate", "--kind", "left-schur", "--algebra", D4, "--max-dim", "6"],
        "60a205b15e1a2916836aad9054fac10a57ddc74a345e7d4dee71d6d7eca14603"),
    # taken while the census still decided representability by the constructive
    # filtration audit; lists the 171 non-representable monobricks of D4 at b6
    "verify-2.5-d4-b6": (
        ["verify", "--theorem", "2.5", "--algebra", D4, "--max-dim", "6"],
        "6fc525efbf3fd9b8c65fdb69daace2616a89609a8951ca271547e59cfcd3deba"),
    # taken before indecs read End dimensions in place of the whole Hom table
    "indecs-d4-b4": (
        ["indecs", "--algebra", D4, "--max-dim", "4"],
        "7a73fd031df7ff16d108fa729bf3b8a53a566c867691742326f0521e5b606c1f"),
    # taken while modules still stored a block for every basis element
    "verify-axioms-a4": (
        ["verify", "--theorem", "axioms", *ON_A4],
        "0e52c55c78f9bb535c55964d5c2470cb6393c10349f662843fd0805b0581d62b"),
    "verify-3.2-a4": (
        ["verify", "--theorem", "3.2", *ON_A4],
        "c46365c7d0d9ccdefdef41854cb2068ce3fbac3b5b512258651dc6e5f15979e8"),
    # kA3 = [[kA2, 0], [M, k]] read from files; taken while the triangular
    # table was still built entry by entry (algebra_hash 7146573bab8b449c)
    "verify-3.2-triangular": (
        ["verify", "--theorem", "3.2", "--e", "1", "--triangular", str(SAMPLES / "a2.json"),
         str(SAMPLES / "point.json"), "--bimodule", str(SAMPLES / "bimodule_a3.json"),
         "--max-dim", "3"],
        "3eae04b30394f599ee66e8aedf0c12d27e3ecfc9f574b00415645440d3206f13"),
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI run, the input paths cut to their basenames."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    text = buf.getvalue()
    if text.startswith("{"):
        report = json.loads(text)
        config = report.get("config", {})
        for key in ("algebra", "bimodule"):
            if config.get(key):
                config[key] = Path(config[key]).name
        if config.get("triangular"):
            config["triangular"] = [Path(path).name for path in config["triangular"]]
        text = canonical_json(report)
    return code, text


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_report_digest_is_pinned(name):
    argv, digest = PINNED[name]
    code, text = run_cli(argv)
    assert code == 0
    assert sha256(text) == digest


# (label in the hashed run list, glue arguments): each label is the argument
# list its digest was pinned with, and `--kind cc-monobrick` has replaced the
# pinned `--kind monobrick --variant cc`
GLUE_KINDS = (*((["--kind", k], ["--kind", k]) for k in ("schur", "wide", "torf", "monobrick")),
              (["--kind", "monobrick", "--variant", "cc"], ["--kind", "cc-monobrick"]),
              (["--kind", "semibrick"], ["--kind", "semibrick"]))


def glue_grid(e: str, tmp_path: Path) -> tuple[list[int], str]:
    """Exit codes and one digest of `glue` on kA3 at bound 3 for every kind,
    with and without the hypothesis override, on three pairs of edge inputs:
    every edge member, the first member and the first two members of each
    edge."""
    alg = load_algebra_file(A3)
    r = build_recollement(alg, IdempotentSpec(alg, tuple(
        alg.vertex_labels.index(v) for v in e.split(","))), bound=3)
    codes, runs = [], []
    for name, pick in (("all", lambda u: u.ids), ("first", lambda u: u.ids[:1]),
                       ("two", lambda u: u.ids[:2])):
        ey, ez = tmp_path / f"{name}_y.json", tmp_path / f"{name}_z.json"
        save_id_set(ey, r.u_b, pick(r.u_b), "subcategory")
        save_id_set(ez, r.u_c, pick(r.u_c), "subcategory")
        for label, kind in GLUE_KINDS:
            for override in ([], ["--allow-unverified-hypothesis"]):
                code, text = run_cli(["glue", "--e", e, *ON_A3, "--e-y", str(ey),
                                      "--e-z", str(ez), *kind, *override])
                codes.append(code)
                runs.append([name, label, override, code, text])
    return codes, sha256(canonical_json(runs))


# --e -> (exit codes in grid order, digest); the exit codes were taken before
# the gluing layer became glue_subcategory and glue_bricks, the digests after
# every kind came to carry hypothesis_unverified, true only where its law needs
# i^! exact, i^! is not exact and the override is given
GLUE_PINS = {
    "1": ([0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0,
           0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
          "939311a65d47b846b2602a336e2596cfe772cfb5192bee5a954585c155c86e02"),
    # i^! is not exact here, so the hypothesis-guarded kinds exit 2 without the override
    "2,3": ([2, 0, 2, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 0, 2, 0, 0, 0,
             0, 0, 2, 0, 0, 0, 2, 1, 2, 1, 1, 1, 0, 0, 2, 1, 0, 0],
            "a63236c1135634b86815ed6fd1afc72ee3b09a2de9e9f51d44b17551398cb867"),
}


@pytest.mark.parametrize("e", GLUE_PINS)
def test_glue_digests_are_pinned(e, tmp_path):
    assert glue_grid(e, tmp_path) == GLUE_PINS[e]


def dot_grid(path: str, bound: int, tmp_path: Path) -> str:
    """One digest of `export-dot` with both --outside values, for the whole
    universe and for its members of even id (sim as the black vertices)."""
    u = build_universe(load_algebra_file(path), bound)
    runs = []
    for name, ids in (("all", u.ids), ("even", u.ids[::2])):
        sub = tmp_path / f"{name}.json"
        save_id_set(sub, u, ids, "subcategory")
        for outside in ("omit", "grey"):
            runs.append([name, outside, *run_cli(["export-dot", "--algebra", path,
                                                   "--max-dim", str(bound),
                                                   "--subcategory", str(sub),
                                                   "--outside", outside])])
    return sha256(canonical_json(runs))


# name -> (algebra file, bound, digest); taken before the Hom profile dropped
# its surjectivity flag and export-dot scanned for epi edges itself
DOT_PINS = {
    "a3": (A3, 3, "6811a7c0903928a12580f67e87b223bfdaaa1d6d8ea69a0846484538de38051e"),
    "d4-p3-b4": (D4, 4, "e2ae67645b059929cc9347bd5b987daeb2c7ce38319e7e0d1f622364ab9e5024"),
}


@pytest.mark.parametrize("name", DOT_PINS)
def test_dot_digests_are_pinned(name, tmp_path):
    path, bound, digest = DOT_PINS[name]
    assert dot_grid(path, bound, tmp_path) == digest


# name -> (sweep, count, seed, keyword arguments, sha256 of canonical_json of
# the sweep report); the first two were taken before the universe memoised its
# Hom spaces, brick verdicts and submodule sequences and both sides of an
# exactness instance shared one A-universe, the p=3 exactness one before the
# exactness certificate moved to 0 -> AeA -> A -> A/AeA -> 0, and the p=3
# gluing-law one before j_!* N was read as the submodule (j_* N)·eA
SWEEPS = {
    "exactness-30-20260810": (
        fuzz_exactness_sweep, 30, 20260810, {},
        "0919b4e5ec9f32100f5a7c45081b9d64178b03893b61fbc0fcd42ada7ac0d7c8"),
    "theorem-30-4040": (
        fuzz_theorem_sweep, 30, 4040, {},
        "9f5d326c64ddf3ad5d6d5a94ce0d8c927dadf3118eab9e14d7e73f053d43061f"),
    "exactness-40-888000-p3": (
        fuzz_exactness_sweep, 40, 888000, {"p": 3},
        "113922a316d18b6dbe20653148a7d8608334a2729bee4cf13cb6edb809e790e5"),
    "theorem-30-4040-p3": (
        fuzz_theorem_sweep, 30, 4040, {"p": 3},
        "bb36d6da4562849fa31e9a293197723d65e5fbf71c949876844b5b589e5135ff"),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_digest_is_pinned(name):
    sweep, count, seed, kwargs, digest = SWEEPS[name]
    assert sha256(canonical_json(sweep(count, seed, **kwargs))) == digest
