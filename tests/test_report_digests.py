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

from schurrec.cli import main
from schurrec.storage import canonical_json

A3 = str(Path(__file__).resolve().parent.parent / "sample_inputs" / "a3.json")
ON_A3 = ["--algebra", A3, "--max-dim", "3"]

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
