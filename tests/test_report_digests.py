"""CLI reports pinned by their sha256, so a refactor that claims byte-identical
reports is checked on every run.

The digests were taken before the universe took over the search budgets of
its census and predicate functions.  `config.algebra` holds the path the file
was given by, so it is replaced by the file's basename before hashing.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from schurrec.census import fuzz_exactness_sweep, fuzz_theorem_sweep
from schurrec.cli import main
from schurrec.storage import canonical_json

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
}


@pytest.mark.parametrize("name", PINNED)
def test_report_digest_is_pinned(name):
    argv, digest = PINNED[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    report = json.loads(buf.getvalue())
    if report["config"]["algebra"]:
        report["config"]["algebra"] = Path(report["config"]["algebra"]).name
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == digest


# name -> (sweep, count, seed, sha256 of canonical_json of the sweep report);
# taken before the universe memoised its Hom spaces, brick verdicts and
# submodule sequences and both sides of an exactness instance shared one
# A-universe
SWEEPS = {
    "exactness-30-20260810": (
        fuzz_exactness_sweep, 30, 20260810,
        "0919b4e5ec9f32100f5a7c45081b9d64178b03893b61fbc0fcd42ada7ac0d7c8"),
    "theorem-30-4040": (
        fuzz_theorem_sweep, 30, 4040,
        "9f5d326c64ddf3ad5d6d5a94ce0d8c927dadf3118eab9e14d7e73f053d43061f"),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_digest_is_pinned(name):
    sweep, count, seed, digest = SWEEPS[name]
    report = sweep(count, seed)
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == digest
