"""The three workloads: their inputs, jobs, and the oracle check of every output.

A job calls the engine once, through `schurrec.cli.main` or a public sweep
function, and yields an Outcome: the canonical report text (hashed for the
determinism check) and a verdict.

- decided: the engine reached a verdict and the oracle agrees with it;
- undecided: the engine exited 3 (BudgetExceeded) or skipped the instance
  (UniverseExhausted); the reason is kept and the job stays in the base;
- failed: a wrong answer against the oracle, exit 1 or 2, or an unexpected
  exception.

Imports of the engine happen in `setup`, which is what the setup_s metric
times together with loading the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracles

FUZZ_P = 2
FUZZ_BOUND = 3
FUZZ_PER_STREAM = 120           # exactness jobs, and as many gluing-law jobs
FUZZ_EXACTNESS_SEED = 20260810  # acceptance criterion 6
FUZZ_THEOREM_SEED = 4040        # acceptance criterion 7
FUZZ_LAWS = ("3.2", "3.3", "3.4", "3.5")
CENSUS_N = 4                    # linear kA4
CENSUS_BOUND = 4

# job name -> (algebra, bound)
WALLS = {
    "kronecker_b4": ("kronecker", 4),
    "d4_b4": ("d4", 4),
    "loop_b3": ("loop", 3),
    "loop_b4": ("loop", 4),
}
# job name -> cli arguments before the shared --algebra/--max-dim
CENSUS = {
    "enumerate_left_schur": ["enumerate", "--kind", "left-schur"],
    "enumerate_wide": ["enumerate", "--kind", "wide"],
    "enumerate_torf": ["enumerate", "--kind", "torf"],
    "verify_2_5": ["verify", "--theorem", "2.5"],
}
WORKLOADS = ("fuzz_p2", "census_a4", "walls_p3")
INPUT_ALGEBRAS = {"fuzz_p2": (), "census_a4": ("a4",),
                  "walls_p3": ("kronecker", "d4", "loop")}


@dataclass
class Outcome:
    verdict: str
    text: str
    reason: dict | None = None


@dataclass
class Job:
    name: str
    call: object          # () -> (exit code, report text)
    judge: object         # (exit code, report text) -> Outcome


@dataclass
class Workload:
    jobs: list[Job]
    fingerprint: dict


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def undecided_reason(kind: str, message: str) -> dict:
    budget = re.search(r"needed (\d+), limit (\d+)", message)
    if budget:
        return {"kind": "BudgetExceeded", "needed": int(budget.group(1)),
                "limit": int(budget.group(2))}
    exhausted = re.search(r"dimension vector \[([0-9, ]*)\]", message)
    if exhausted:
        return {"kind": "UniverseExhausted",
                "dim_vector": [int(x) for x in exhausted.group(1).split(",") if x.strip()]}
    return {"kind": kind, "message": message}


def fail(text: str, why: str, **payload) -> Outcome:
    return Outcome("failed", text, {"why": why, **payload})


# ---------------------------------------------------------------------------
# the CLI-driven workloads


def cli_call(argv: list[str]):
    from schurrec import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return call


def judge_cli(check):
    """Exit 0 goes to check(report) -> None or a mismatch; 3 is undecided."""

    def judge(code: int, text: str) -> Outcome:
        if code == 3:
            err = json.loads(text).get("error", {})
            return Outcome("undecided", text,
                           undecided_reason(err.get("type", "exit 3"), err.get("message", "")))
        if code != 0:
            return fail(text, f"exit code {code}")
        mismatch = check(json.loads(text))
        return Outcome("decided", text) if mismatch is None else fail(text, "oracle", **mismatch)

    return judge


def labelled_dims(report: dict) -> Counter:
    labels = report["vertex_labels"]
    return Counter(tuple(sorted(zip(labels, row["dims"]))) for row in report["modules"])


def walls_expected(algebra: str, bound: int, seed: int) -> Counter:
    _, vmap = inputs.algebra_document(algebra, seed)
    p, vertices, arrows, _ = inputs.ALGEBRAS[algebra]
    if algebra == "kronecker":
        src, tgt = arrows[0][1], arrows[0][2]
        dims = oracles.kronecker_dims(p, bound)
        return Counter({tuple(sorted(((vmap[src], a), (vmap[tgt], b)))): n
                        for (a, b), n in dims.items()})
    if algebra == "d4":
        roots = oracles.tits_positive_roots(vertices, arrows, bound)
    else:
        roots = oracles.square_zero_loop_dims(bound)
    return Counter(tuple(sorted(zip((vmap[v] for v in vertices), x))) for x in roots)


def dims_check(expected: Counter):
    def check(report: dict):
        found = labelled_dims(report)
        if found == expected:
            return None
        return {"expected": sorted(map(list, expected.elements())),
                "found": sorted(map(list, found.elements()))}

    return check


def census_check(job: str):
    want = oracles.linear_a_counts(CENSUS_N)

    def check(report: dict):
        if job == "enumerate_left_schur":
            monobricks = [tuple(e["flags"]["monobrick"]) for e in report["entries"]]
            got = {"left_schur": len(report["entries"]),
                   "wide": report["counts"]["wide"],
                   "torsion_free": report["counts"]["torsion_free"],
                   "monobricks": len(set(monobricks)),
                   "bricks": len({m for m in monobricks if len(m) == 1}),
                   "non_representable": report["counts"]["non_representable_monobricks"]}
            expect = {**want, "non_representable": 0}
            del expect["semibricks"]
        elif job == "verify_2_5":
            # cofinally closed monobricks pair off with torsion-free classes
            expect = {**want, "ok": True, "cc_monobricks": want["torsion_free"]}
            del expect["bricks"]
            counts = report["bijection"]["counts"]
            got = {k: counts[k] for k in expect if k != "ok"} | {"ok": report["ok"]}
        else:
            kind = "wide" if job == "enumerate_wide" else "torf"
            got = {"count": report["counts"][kind], "entries": len(report["entries"])}
            expect = {"count": want["wide"], "entries": want["wide"]}
        return None if got == expect else {"expected": expect, "found": got}

    return check


# ---------------------------------------------------------------------------
# fuzz_p2: the steps of `verify --fuzz`, one random instance per job


def fuzz_seeds(seed: int) -> tuple[list[int], list[int]]:
    """Disjoint instance blocks per seed; seed 0 is the acceptance criteria's."""
    ex = FUZZ_EXACTNESS_SEED + 1000 * seed
    th = FUZZ_THEOREM_SEED + 1000 * seed
    return ([ex + k for k in range(FUZZ_PER_STREAM)],
            [th + k for k in range(FUZZ_PER_STREAM)])


def fuzz_call(stream: str, instance_seed: int):
    from schurrec import census, storage

    def call():
        if stream == "exactness":
            report = census.fuzz_exactness_sweep(1, instance_seed, FUZZ_P, FUZZ_BOUND)
        else:
            report = census.fuzz_theorem_sweep(1, instance_seed, FUZZ_LAWS, FUZZ_P,
                                               FUZZ_BOUND)
        return 0, storage.canonical_json(report)

    return call


def judge_fuzz(stream: str):
    def judge(code: int, text: str) -> Outcome:
        entry = json.loads(text)["instances"][0]
        if entry.get("skipped"):
            return Outcome("undecided", text, undecided_reason("skipped", entry["reason"]))
        if not entry["ok"]:
            return fail(text, "instance not ok", error=entry.get("error"))
        # the C-corner of a triangular matrix algebra always has exact i^!
        if stream == "exactness":
            canonical = entry["sides"].get("canonical")
            if canonical is not None and not canonical["exact"]:
                return fail(text, "canonical corner not exact")
        elif any(law["skipped"] for law in entry["laws"].values()):
            return fail(text, "gluing law skipped at the exact canonical corner")
        return Outcome("decided", text)

    return judge


# ---------------------------------------------------------------------------


def setup(name: str, seed: int, input_dir: Path) -> Workload:
    """Import the engine and load every input; returns the ready job list."""
    import schurrec.cli  # noqa: F401  (imports every layer)
    from schurrec.census import random_triangular_instance
    from schurrec.storage import load_algebra_file

    fingerprint: dict = {}
    jobs: list[Job] = []
    paths = {alg: str(input_dir / f"{alg}.json") for alg in INPUT_ALGEBRAS[name]}
    for alg, path in paths.items():
        fingerprint[alg] = {"file_sha256": sha256(Path(path).read_text()),
                            "algebra_hash": load_algebra_file(path).algebra_hash}
    if name == "fuzz_p2":
        ex, th = fuzz_seeds(seed)
        hashes = [random_triangular_instance(random.Random(s), FUZZ_P)[0].algebra_hash
                  for s in ex + th]
        for s_ex, s_th in zip(ex, th):
            jobs.append(Job(f"exactness_{s_ex}", fuzz_call("exactness", s_ex),
                            judge_fuzz("exactness")))
            jobs.append(Job(f"theorem_{s_th}", fuzz_call("theorem", s_th),
                            judge_fuzz("theorem")))
        fingerprint["instances"] = len(hashes)
        fingerprint["algebra_hashes_sha256"] = sha256("\n".join(hashes))
    elif name == "census_a4":
        for job, args in CENSUS.items():
            argv = args + ["--algebra", paths["a4"], "--max-dim", str(CENSUS_BOUND)]
            jobs.append(Job(job, cli_call(argv), judge_cli(census_check(job))))
    elif name == "walls_p3":
        for job, (alg, bound) in WALLS.items():
            argv = ["indecs", "--algebra", paths[alg], "--max-dim", str(bound)]
            jobs.append(Job(job, cli_call(argv),
                            judge_cli(dims_check(walls_expected(alg, bound, seed)))))
    else:
        raise ValueError(f"unknown workload {name!r}")
    fingerprint["digest"] = sha256(json.dumps(fingerprint, sort_keys=True))
    return Workload(jobs, fingerprint)
