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
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .algebras import Algebra, IdempotentSpec
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


def _parent_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--algebra", help="algebra input JSON file")
    p.add_argument("--triangular", nargs=2, metavar=("B", "C"),
                   help="build the algebra as [[B,0],[M,C]] from two algebra files")
    p.add_argument("--bimodule", help="bimodule JSON file for --triangular")
    p.add_argument("--e", default="",
                   help="comma-separated vertex labels of the idempotent")
    p.add_argument("--max-dim", type=int, default=4,
                   help="universe dimension bound (default 4)")
    p.add_argument("--char", type=int, help="override the field characteristic")
    p.add_argument("--threshold", type=int, default=2**20,
                   help="exhaustive-scan element limit (default 2^20)")
    p.add_argument("--subset-cap", type=int, default=2**12,
                   help="oracle subset enumeration cap (default 2^12)")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--cache", help="universe cache file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="process count for fuzz sweeps (default 1)")
    p.add_argument("--allow-unverified-hypothesis", action="store_true",
                   help="run hypothesis-guarded gluings without the certificate")
    p.add_argument("--out", help="write the report here instead of stdout")
    return p


def build_cli() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurrec",
        description="monobricks, left Schur subcategories and recollement gluing "
                    "over bound quiver algebras",
    )
    parser.add_argument("--version", action="version", version=f"schurrec {__version__}")
    parent = _parent_parser()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("indecs", parents=[parent],
                   help="enumerate the universe of indecomposables")
    pe = sub.add_parser("enumerate", parents=[parent],
                        help="enumerate brick sets or subcategories")
    pe.add_argument("--kind", choices=("monobricks", "left-schur", "wide", "torf"),
                    default="left-schur")
    pe.add_argument("--edge", choices=("y", "z"),
                    help="enumerate an edge category of the recollement at --e")
    pc = sub.add_parser("check", parents=[parent],
                        help="classify a serialized subcategory or brick set")
    pc.add_argument("--candidate", required=True)
    pc.add_argument("--edge", choices=("y", "z"))
    pg = sub.add_parser("glue", parents=[parent], help="glue edge data through a recollement")
    pg.add_argument("--e-y", required=True, help="id-set file over mod A/AeA")
    pg.add_argument("--e-z", required=True, help="id-set file over mod eAe")
    pg.add_argument("--kind", choices=("schur", "wide", "torf", "monobrick", "semibrick"),
                    default="schur")
    pg.add_argument("--variant", choices=("general", "cc"), default="general")
    pv = sub.add_parser("verify", parents=[parent], help="run a verification harness")
    pv.add_argument("--theorem", required=True,
                    help="2.5/bijection, 3.2/schur, 3.3/wide, 3.4/torf, "
                         "3.5/cc-monobrick, axioms, exactness")
    pv.add_argument("--fuzz", type=int, default=0,
                    help="also sweep this many random triangular algebras")
    pt = sub.add_parser("table1", parents=[parent],
                        help="reproduce the 12-row gluing table of the worked example")
    pt.add_argument("--dot-dir", help="write one DOT file per row here")
    pd = sub.add_parser("export-dot", parents=[parent],
                        help="render a subcategory as a brick digraph")
    pd.add_argument("--subcategory", required=True)
    pd.add_argument("--monobrick", help="id-set file of the black vertices")
    pd.add_argument("--outside", choices=("omit", "grey"), default="omit")
    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        algebra=args.algebra,
        triangular=tuple(args.triangular) if args.triangular else None,
        bimodule=args.bimodule,
        e_vertices=tuple(v for v in args.e.split(",") if v),
        max_dim=args.max_dim,
        char=args.char,
        scan_limit=args.threshold,
        subset_cap=args.subset_cap,
        format=args.format,
        cache=args.cache,
        seed=args.seed,
        workers=args.workers,
        allow_unverified_hypothesis=args.allow_unverified_hypothesis,
    )


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


def _emit(cfg: RunConfig, args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


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
        _emit(cfg, args, tsv_table(rows, ["id", "dims", "total_dim", "end_dim", "brick"]))
    else:
        _emit(cfg, args, canonical_json(report))
    return 0


def _edge_universe(cfg: RunConfig, args, alg: Algebra):
    """Universe of the requested category: mod A, or an edge of the recollement."""
    th = cfg.thresholds()
    edge = getattr(args, "edge", None)
    if edge is None:
        return universe_or_build(alg, cfg.max_dim, cfg.cache, th), alg
    e = _idempotent(cfg, alg)
    r = build_recollement(alg, e, bound=cfg.max_dim, thresholds=th, self_check=False)
    return (r.u_b, r.b_alg) if edge == "y" else (r.u_c, r.c_alg)


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
        _emit(cfg, args, tsv_table(rows, cols))
    else:
        _emit(cfg, args, canonical_json(report))
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
    _emit(cfg, args, canonical_json(report))
    return 0


def cmd_glue(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    e = _idempotent(cfg, alg)
    r = build_recollement(alg, e, bound=cfg.max_dim, thresholds=cfg.thresholds())
    ids_y, _ = load_id_set(args.e_y, r.u_b)
    ids_z, _ = load_id_set(args.e_z, r.u_c)
    report = _base_report(cfg, alg)
    exact, cert = r.is_i_shriek_exact()
    report["exactness_certificate"] = cert.as_dict()
    kind = "cc-monobrick" if args.kind == "monobrick" and args.variant == "cc" else args.kind
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
    if args.out:
        save_id_set(args.out, r.u_a, ids_out, result_kind)
        sys.stdout.write(canonical_json(report))
    else:
        _emit(cfg, args, canonical_json(report))
    return 0 if report.get("validated", True) else 1


def cmd_verify(cfg: RunConfig, args) -> int:
    alg = _load_algebra(cfg)
    th = cfg.thresholds()
    which = args.theorem.lower()
    report = _base_report(cfg, alg)
    ok = True
    if which in ("2.5", "bijection"):
        u = universe_or_build(alg, cfg.max_dim, cfg.cache, th)
        body = verify_bijection(u)
        report["bijection"] = body
        ok = body["ok"]
    elif which == "axioms":
        r = build_recollement(alg, _idempotent(cfg, alg), bound=cfg.max_dim, thresholds=th)
        body = r.axiom_report()
        report["axioms"] = body
        report["simple_gluing"] = r.simple_gluing_report()
        ok = body["ok"] and report["simple_gluing"]["ok"]
    elif which == "exactness":
        r = build_recollement(alg, _idempotent(cfg, alg), bound=cfg.max_dim, thresholds=th)
        exact, cert = r.is_i_shriek_exact()
        report["certificate"] = cert.as_dict()
        body = r.exactness_consequences_report()
        report["consequences"] = body
        ok = body["ok"]
        if args.fuzz:
            sweep = fuzz_exactness_sweep(args.fuzz, cfg.seed, alg.p, cfg.max_dim,
                                         th, cfg.workers)
            report["fuzz"] = sweep
            ok = ok and sweep["ok"]
    elif which in LAW_ALIASES:
        r = build_recollement(alg, _idempotent(cfg, alg), bound=cfg.max_dim, thresholds=th)
        body = verify_theorem(r, which)
        report["theorem"] = body
        ok = body["ok"]
        if args.fuzz:
            sweep = fuzz_theorem_sweep(args.fuzz, cfg.seed, (which,), alg.p,
                                       cfg.max_dim, th, cfg.workers)
            report["fuzz"] = sweep
            ok = ok and sweep["ok"]
    else:
        raise InputError(f"unknown verification target {args.theorem!r}")
    report["ok"] = ok
    _emit(cfg, args, canonical_json(report))
    return 0 if ok else 1


TABLE_COLUMNS = [
    "b_monobrick", "c_monobrick", "glued_monobrick", "subcategory",
    "left_schur", "wide", "torsion_free", "b_semibrick", "b_cofinally_closed",
]


def cmd_table1(cfg: RunConfig, args) -> int:
    p = cfg.char or 2
    report_body = reproduce_table1(p=p, bound=3, thresholds=cfg.thresholds())
    r = report_body.pop("_recollement")
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
        _emit(cfg, args, tsv_table(report_body["rows"], TABLE_COLUMNS))
    else:
        _emit(cfg, args, canonical_json(report))
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
    _emit(cfg, args, dot_graph(u, member_ids, mono_ids, outside=args.outside))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_cli()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = _config_from(args)
    handler = {
        "indecs": cmd_indecs,
        "enumerate": cmd_enumerate,
        "check": cmd_check,
        "glue": cmd_glue,
        "verify": cmd_verify,
        "table1": cmd_table1,
        "export-dot": cmd_export_dot,
    }[args.command]
    try:
        return handler(cfg, args)
    except SchurrecError as exc:
        sys.stdout.write(canonical_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        ))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
