"""Command-line interface.

Commands: indecs, enumerate, check, glue, verify, table1, export-dot.
Exit codes: 0 all assertions pass, 1 verification/assertion failure,
2 usage or schema error, 3 budget exceeded.

Every report embeds the resolved configuration, the algebra hash and the
universe bound, and reruns with identical flags produce byte-identical
output: reports carry no timings.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .algebras import Algebra, IdempotentSpec, corner_algebra, quotient_by_idempotent_ideal
from .census import (
    all_left_schur,
    all_monobricks,
    all_torf,
    all_wide,
    fuzz_exactness_sweep,
    fuzz_theorem_sweep,
    reproduce_table1,
)
from .errors import InputError, SchurrecError
from .modules import Thresholds
from .recollements import (
    LAW_ALIASES,
    NEEDS_EXACT,
    build_recollement,
    glue_bricks,
    glue_subcategory,
    verify_theorem,
)
from .storage import (
    canonical_json,
    dot_graph,
    load_algebra_file,
    load_id_set,
    load_triangular,
    save_id_set,
    tsv_table,
    universe_or_build,
)
from .subcats import (
    all_bricks,
    id_mask,
    is_cofinally_closed,
    is_extension_closed,
    is_left_schur,
    is_monobrick,
    is_semibrick,
    is_torsion_free,
    is_wide,
    mask_ids,
    require_bricks,
    sim,
    verify_bijection,
)


@dataclass
class RunConfig:
    command: str
    algebra: str | None = None
    triangular: tuple[str, str] | None = None
    bimodule: str | None = None
    e_vertices: tuple[str, ...] = ()
    max_dim: int = 4
    char: int | None = None
    scan_limit: int = 2**20
    subset_cap: int = 2**12
    format: str = "json"
    cache: str | None = None
    seed: int = 0
    workers: int = 1
    allow_unverified_hypothesis: bool = False

    def thresholds(self) -> Thresholds:
        return Thresholds(scan_limit=self.scan_limit, subset_cap=self.subset_cap)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they print the JSON error and exit 2."""

    def error(self, message):
        raise InputError(message)


def _int_at_least(low: int):
    """An argparse type: an integer, and InputError naming the flag below low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message for a non-integer names the type
    return parse


def _flag_groups() -> dict[str, argparse.ArgumentParser]:
    """The shared flags, one parent parser per group (a parent only lends its
    actions).  Each dest but --out's names a RunConfig field, and an absent
    flag stays out of the namespace, so the defaults are RunConfig's."""
    groups = {name: argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
              for name in ("all", "input", "e", "format", "fuzz", "glue")}
    g = groups["all"]
    g.add_argument("--char", type=int, help="override the field characteristic")
    g.add_argument("--threshold", dest="scan_limit", type=_int_at_least(0), metavar="N",
                   help="exhaustive-scan element limit (default 2^20)")
    g.add_argument("--subset-cap", type=_int_at_least(0),
                   help="oracle subset enumeration cap (default 2^12)")
    g.add_argument("--out", default=None, help="report file, not stdout (glue: the glued id set)")
    g = groups["input"]
    g.add_argument("--algebra", help="algebra input JSON file")
    g.add_argument("--triangular", nargs=2, metavar=("B", "C"),
                   help="build the algebra as [[B,0],[M,C]] from two algebra files")
    g.add_argument("--bimodule", help="bimodule JSON file for --triangular")
    g.add_argument("--max-dim", type=_int_at_least(0), help="universe dimension bound (default 4)")
    g.add_argument("--cache", help="cache file of the universe the command builds")
    groups["e"].add_argument("--e", dest="e_vertices", metavar="LABELS",
                             type=lambda s: tuple(v for v in s.split(",") if v),
                             help="comma-separated vertex labels of the idempotent")
    groups["format"].add_argument("--format", choices=("json", "tsv"))
    g = groups["fuzz"]
    g.add_argument("--seed", type=int, help="first instance seed of the sweep (default 0)")
    g.add_argument("--workers", type=_int_at_least(1),
                   help="process count for the sweep (default 1)")
    groups["glue"].add_argument("--allow-unverified-hypothesis", action="store_true",
                                help="run hypothesis-guarded gluings without the certificate")
    return groups


@functools.cache
def build_cli() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="schurrec",
        description="monobricks, left Schur subcategories and recollement gluing "
                    "over bound quiver algebras",
    )
    parser.add_argument("--version", action="version", version=f"schurrec {__version__}")
    groups = _flag_groups()
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, text: str, *reads: str) -> argparse.ArgumentParser:
        """A subcommand with the flag groups it reads, besides "all"."""
        sp = sub.add_parser(name, help=text, parents=[groups[g] for g in ("all", *reads)])
        sp.set_defaults(run=run)
        return sp

    command("indecs", cmd_indecs, "enumerate the universe of indecomposables", "input", "format")
    pe = command("enumerate", cmd_enumerate, "enumerate brick sets or subcategories",
                 "input", "e", "format")
    pe.add_argument("--kind", choices=("monobricks", "left-schur", "wide", "torf"),
                    default="left-schur")
    pe.add_argument("--edge", choices=("y", "z"),
                    help="enumerate mod A/AeA (y) or mod eAe (z) for the idempotent --e")
    pc = command("check", cmd_check, "classify a serialized subcategory or brick set",
                 "input", "e")
    pc.add_argument("--candidate", required=True)
    pc.add_argument("--edge", choices=("y", "z"))
    pg = command("glue", cmd_glue, "glue edge data through a recollement", "input", "e", "glue")
    pg.add_argument("--e-y", required=True, help="id-set file over mod A/AeA")
    pg.add_argument("--e-z", required=True, help="id-set file over mod eAe")
    pg.add_argument("--kind", default="schur", choices=(
        "schur", "wide", "torf", "monobrick", "cc-monobrick", "semibrick"))
    pv = command("verify", cmd_verify, "run a verification harness", "input", "e", "fuzz")
    pv.add_argument("--theorem", required=True,
                    help="2.5/bijection, 3.2/schur, 3.3/wide, 3.4/torf, "
                         "3.5/cc-monobrick, axioms, exactness")
    pv.add_argument("--fuzz", type=_int_at_least(0), default=0,
                    help="with exactness or a gluing law, also sweep this many random "
                         "triangular algebras")
    pt = command("table1", cmd_table1, "reproduce the 12-row gluing table of the worked example",
                 "format")
    pt.add_argument("--dot-dir", help="write one DOT file per row here")
    pd = command("export-dot", cmd_export_dot, "render a subcategory as a brick digraph", "input")
    pd.add_argument("--subcategory", required=True)
    pd.add_argument("--monobrick", help="id-set file of the black vertices")
    pd.add_argument("--outside", choices=("omit", "grey"), default="omit")
    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                       if hasattr(args, f.name)})
    if cfg.triangular:
        cfg.triangular = tuple(cfg.triangular)
    return cfg


def _unread(args, flag: str, dest: str, why: str) -> None:
    if dest in vars(args):
        raise InputError(f"{flag} is not read {why}")


def _load_algebra(cfg: RunConfig) -> Algebra:
    if cfg.triangular:
        if not cfg.bimodule:
            raise InputError("--triangular needs --bimodule")
        alg, _ = load_triangular(cfg.triangular[0], cfg.triangular[1],
                                 cfg.bimodule, cfg.char)
        return alg
    if not cfg.algebra:
        raise InputError("--algebra (or --triangular) is required for this command")
    return load_algebra_file(cfg.algebra, cfg.char)


def _idempotent(cfg: RunConfig, alg: Algebra) -> IdempotentSpec:
    if not cfg.e_vertices:
        raise InputError("--e is required for recollement commands")
    labels = list(alg.vertex_labels)
    try:
        verts = tuple(labels.index(v) for v in cfg.e_vertices)
    except ValueError as exc:
        raise InputError(f"unknown vertex in --e: {exc}") from None
    return IdempotentSpec(alg, verts)


def _base_report(cfg: RunConfig, alg: Algebra | None = None) -> dict:
    report = {"version": __version__, "config": asdict(cfg)}
    if alg is not None:
        report["algebra_hash"] = alg.algebra_hash
        report["bound"] = cfg.max_dim
    return report


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _recollement(cfg: RunConfig, alg: Algebra):
    """The recollement at --e, on the A-universe of --cache."""
    th = cfg.thresholds()
    return build_recollement(alg, _idempotent(cfg, alg), bound=cfg.max_dim, thresholds=th,
                             universe=universe_or_build(alg, cfg.max_dim, cfg.cache, th))


# ---------------------------------------------------------------------------
# command bodies; each returns the exit code


def cmd_indecs(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    u = universe_or_build(alg, cfg.max_dim, cfg.cache, cfg.thresholds())
    bricks = all_bricks(u)
    rows = [
        {
            "id": i,
            "dims": list(u.module(i).dims),
            "total_dim": u.module(i).total_dim,
            "end_dim": u.hom_space(i, i).dim,
            "brick": bool(bricks >> i & 1),
        }
        for i in u.ids
    ]
    report = _base_report(cfg, alg)
    report.update({"strategy": u.strategy, "modules": rows,
                   "vertex_labels": list(alg.vertex_labels)})
    if cfg.format == "tsv":
        _emit(args, tsv_table(rows, ["id", "dims", "total_dim", "end_dim", "brick"]))
    else:
        _emit(args, canonical_json(report))
    return 0


def _edge_universe(cfg: RunConfig, args, alg: Algebra):
    """The universe of mod A, or of the edge --edge of the recollement at --e:
    mod A/AeA (y) or mod eAe (z), built without the recollement."""
    if args.edge is None:
        _unread(args, "--e", "e_vertices", "without --edge")
    else:
        edge = quotient_by_idempotent_ideal if args.edge == "y" else corner_algebra
        alg, _ = edge(alg, _idempotent(cfg, alg))
    return universe_or_build(alg, cfg.max_dim, cfg.cache, cfg.thresholds()), alg


def cmd_enumerate(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    u, owner = _edge_universe(cfg, args, alg)
    census = {"monobricks": all_monobricks, "left-schur": all_left_schur,
              "wide": all_wide, "torf": all_torf}
    res = census[args.kind](u)
    report = _base_report(cfg, alg)
    report.update({
        "kind": res.kind,
        "universe_algebra_hash": owner.algebra_hash,
        "oracle_ran": res.oracle_ran,
        "counts": res.counts,
        "entries": [{"ids": list(e.ids), "flags": e.flags} for e in res.entries],
    })
    if cfg.format == "tsv":
        rows = [{"ids": list(e.ids), **e.flags} for e in res.entries]
        cols = ["ids"] + sorted({k for r in rows for k in r if k != "ids"})
        _emit(args, tsv_table(rows, cols))
    else:
        _emit(args, canonical_json(report))
    return 0


def cmd_check(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    u, owner = _edge_universe(cfg, args, alg)
    ids, kind = load_id_set(args.candidate, u)
    report = _base_report(cfg, alg)
    report["universe_algebra_hash"] = owner.algebra_hash
    report["ids"] = sorted(ids)
    report["kind"] = kind
    e = id_mask(ids)
    if kind == "brickset":
        require_bricks(u, e)
        report["flags"] = {
            "semibrick": is_semibrick(u, e),
            "monobrick": is_monobrick(u, e),
            "cofinally_closed": is_cofinally_closed(u, e),
        }
    else:
        ext = is_extension_closed(u, e)
        report["flags"] = {
            "extension_closed": ext,
            "left_schur": is_left_schur(u, e),
            "wide": is_wide(u, e),
            "torsion_free": is_torsion_free(u, e),
        }
        if ext:
            report["sim"] = list(mask_ids(sim(u, e)))
    _emit(args, canonical_json(report))
    return 0


def cmd_glue(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    r = _recollement(cfg, alg)
    ids_y, _ = load_id_set(args.e_y, r.u_b)
    ids_z, _ = load_id_set(args.e_z, r.u_c)
    report = _base_report(cfg, alg)
    exact, cert = r.is_i_shriek_exact()
    report["exactness_certificate"] = cert.as_dict()
    kind = args.kind
    if kind in ("schur", "wide", "torf"):
        out = glue_subcategory(r, id_mask(ids_y), id_mask(ids_z), kind,
                               allow_unverified=cfg.allow_unverified_hypothesis)
        validator = {"schur": is_left_schur, "wide": is_wide, "torf": is_torsion_free}[kind]
        report["validated"] = validator(r.u_a, out)
        result_kind = "subcategory"
    else:
        out = glue_bricks(r, id_mask(ids_y), id_mask(ids_z), kind,
                          allow_unverified=cfg.allow_unverified_hypothesis)
        report["validated"] = True  # glue_bricks hard-fails on validation errors
        result_kind = "brickset"
    ids_out = mask_ids(out)
    report["hypothesis_unverified"] = (kind in NEEDS_EXACT and not exact
                                       and cfg.allow_unverified_hypothesis)
    report["result"] = {"kind": result_kind, "ids": list(ids_out)}
    if args.out:  # the glued set goes to --out, the report to stdout
        save_id_set(args.out, r.u_a, ids_out, result_kind)
    sys.stdout.write(canonical_json(report))
    return 0 if report["validated"] else 1


def cmd_verify(cfg: RunConfig, args) -> int:
    which = args.theorem.lower()
    bijection = which in ("2.5", "bijection")
    if not (bijection or which in ("axioms", "exactness") or which in LAW_ALIASES):
        raise InputError(f"unknown verification target {args.theorem!r}")
    if bijection:
        _unread(args, "--e", "e_vertices", "by --theorem 2.5")
    if args.fuzz and (bijection or which == "axioms"):
        raise InputError(f"--fuzz is not read by --theorem {args.theorem}")
    if not args.fuzz:
        _unread(args, "--seed", "seed", "without --fuzz")
        _unread(args, "--workers", "workers", "without --fuzz")
    alg = _load_algebra(cfg)
    th = cfg.thresholds()
    report = _base_report(cfg, alg)
    if bijection:
        report["bijection"] = verify_bijection(universe_or_build(alg, cfg.max_dim, cfg.cache, th))
        ok = report["bijection"]["ok"]
    else:
        r = _recollement(cfg, alg)
        if which == "axioms":
            report["axioms"] = r.axiom_report()
            report["simple_gluing"] = r.simple_gluing_report()
            ok = report["axioms"]["ok"] and report["simple_gluing"]["ok"]
        elif which == "exactness":
            report["certificate"] = r.is_i_shriek_exact()[1].as_dict()
            report["consequences"] = r.exactness_consequences_report()
            ok = report["consequences"]["ok"]
        else:
            report["theorem"] = verify_theorem(r, which)
            ok = report["theorem"]["ok"]
        if args.fuzz:
            report["fuzz"] = (
                fuzz_exactness_sweep(args.fuzz, cfg.seed, alg.p, cfg.max_dim, th, cfg.workers)
                if which == "exactness" else
                fuzz_theorem_sweep(args.fuzz, cfg.seed, (which,), alg.p, cfg.max_dim, th,
                                   cfg.workers))
            ok = ok and report["fuzz"]["ok"]
    report["ok"] = ok
    _emit(args, canonical_json(report))
    return 0 if ok else 1


TABLE_COLUMNS = [
    "b_monobrick", "c_monobrick", "glued_monobrick", "subcategory",
    "left_schur", "wide", "torsion_free", "b_semibrick", "b_cofinally_closed",
]


def cmd_table1(cfg: RunConfig, args) -> int:
    report_body, r = reproduce_table1(p=cfg.char or 2, thresholds=cfg.thresholds())
    report = _base_report(cfg)
    report.update(report_body)
    if args.dot_dir:
        outdir = Path(args.dot_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for k, row in enumerate(report_body["rows"]):
            text = dot_graph(r.u_a, row["subcategory"], row["glued_monobrick"],
                             name=f"row{k}")
            (outdir / f"row{k:02d}.dot").write_text(text)
    if cfg.format == "tsv":
        _emit(args, tsv_table(report_body["rows"], TABLE_COLUMNS))
    else:
        _emit(args, canonical_json(report))
    return 0 if report_body["ok"] else 1


def cmd_export_dot(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    u = universe_or_build(alg, cfg.max_dim, cfg.cache, cfg.thresholds())
    member_ids, _ = load_id_set(args.subcategory, u)
    if args.monobrick:
        mono_ids, _ = load_id_set(args.monobrick, u)
    else:
        e = id_mask(member_ids)
        mono_ids = mask_ids(sim(u, e)) if is_extension_closed(u, e) else ()
    _emit(args, dot_graph(u, member_ids, mono_ids, outside=args.outside))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_cli().parse_args(argv)
        return args.run(_config_from(args), args)
    except SystemExit:  # --help and --version; usage errors raise InputError
        return 0
    except SchurrecError as exc:
        sys.stdout.write(canonical_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        ))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
