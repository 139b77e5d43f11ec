"""Which engine functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Spans go around the functions whose time
is reported; counters sit at the boundaries where the work happens: rref
matrix shapes, brute-force action tuples (counted at satisfies_relations),
scanned Hom/Ext elements, and cache keys of the per-universe and
per-recollement caches (a call is a miss when the wrapper sees its key for
the first time on that universe or recollement).

Metric names read <layer>.<function>.<stat>: `calls` counts calls, `s` is
inclusive seconds (recursive calls counted once), `self_s` is seconds not
covered by a traced callee, and `*_frac` is a ratio whose base is named in
PER_LAYER's comment.
"""

from __future__ import annotations

import weakref

from tracer import Tracer, roots

PACKAGE = "schurrec"

# functions that get a span, by module
SPANNED = {
    "fields": ("rref", "kernel_basis", "solve"),
    "modules": ("hom_basis", "ext1_basis", "decompose", "submodule_rows",
                "build_universe", "is_indecomposable", "is_isomorphic"),
    "subcats": ("filt_closure", "verify_bijection"),
    "census": ("all_left_schur", "all_wide", "all_torf"),
    "recollements": ("verify_theorem",),
    "algebras": ("algebra_from_quiver", "triangular_matrix_algebra"),
    "storage": ("load_algebra_file", "canonical_json"),
    "cli": ("main",),
}
# subcats caches: function -> number of key arguments after the universe
CACHED = {"hom_profile": 2, "ext_middles": 2, "submodule_decomps": 1,
          "hom_element_kernels": 2}

CENSUS_JOBS = ("enumerate_left_schur", "enumerate_wide", "enumerate_torf", "verify_2_5")
WALLS_JOBS = ("kronecker_b4", "d4_b4", "loop_b3", "loop_b4")

# (name, unit), in the order of BENCHMARK.json.  Each group's comment says which
# end-to-end metric it should move, and on which workload.
PER_LAYER = [
    # F_p kernel: wall_s on census_a4 and fuzz_p2; an empty-matrix short-circuit
    # should leave walls_p3 unchanged (few empty calls there)
    ("fields.rref.calls", "count"),
    ("fields.rref.self_s", "s"),
    ("fields.rref.empty_frac", "frac"),          # calls with a zero dimension / calls
    ("fields.rref.le3_frac", "frac"),            # calls at most 3x3 / calls
    ("fields.kernel_basis.calls", "count"),
    ("fields.solve.calls", "count"),
    # Hom/Ext systems and decomposition: wall_s on walls_p3 and fuzz_p2 (hom_basis),
    # on census_a4 and the exactness certificate of fuzz_p2 (the rest)
    ("modules.hom_basis.calls", "count"),
    ("modules.hom_basis.self_s", "s"),
    ("modules.ext1_basis.calls", "count"),
    ("modules.ext1_basis.self_s", "s"),
    ("modules.decompose.calls", "count"),
    ("modules.decompose.self_s", "s"),
    ("modules.submodule_rows.calls", "count"),
    ("modules.submodule_rows.self_s", "s"),
    ("modules.submodule_rows.submodules", "count"),
    # universe construction: wall_s and decided_frac on walls_p3, job_p90_s on
    # fuzz_p2; all zero on census_a4, whose analytic universe bypasses brute force
    *((f"modules.build_universe.{job}.s", "s") for job in WALLS_JOBS),
    ("modules.brute_force.tuples", "count"),
    ("modules.brute_force.relation_ok_frac", "frac"),  # tuples passing relations / tuples
    ("modules.brute_force.accept_frac", "frac"),       # modules kept / tuples
    # indecomposability and iso tests (dedup on walls_p3, id_of on census_a4): wall_s
    ("modules.is_indecomposable.calls", "count"),
    ("modules.is_indecomposable.self_s", "s"),
    ("modules.is_isomorphic.calls", "count"),
    ("modules.is_isomorphic.self_s", "s"),
    ("modules.is_isomorphic.true_frac", "frac"),       # True results / calls
    # exhaustive scans: wall_s and decided_frac on census_a4 and walls_p3
    ("modules.scan.elements", "count"),
    ("modules.scan.max_needed_frac", "frac"),          # largest p^dim / scan_limit
    # per-universe caches: wall_s and peak_rss_mb on census_a4 and fuzz_p2
    *((f"subcats.{fn}.{stat}", unit) for fn in CACHED
      for stat, unit in (("calls", "count"), ("miss_frac", "frac"))),  # misses / calls
    # census routes: wall_s on census_a4
    ("subcats.filt_closure.calls", "count"),
    ("subcats.filt_closure.self_s", "s"),
    ("subcats.verify_bijection.s", "s"),
    ("census.all_left_schur.s", "s"),
    ("census.all_wide.s", "s"),
    ("census.all_torf.s", "s"),
    ("census.oracle_subsets", "count"),
    # recollements (build excludes universe construction): job_p50_s and job_p90_s
    # on fuzz_p2; never called on the other two workloads
    ("recollements.build.self_s", "s"),
    ("recollements.exactness.s", "s"),
    ("recollements.exactness.sequences", "count"),
    ("recollements.image_ids.calls", "count"),
    ("recollements.image_ids.miss_frac", "frac"),     # misses / calls
    ("recollements.apply_to_morphism.calls", "count"),
    ("recollements.verify_theorem.s", "s"),
    ("recollements.verify_theorem.pairs_checked", "count"),
    # input construction: setup_s everywhere, job time on fuzz_p2; report
    # serialization and CLI dispatch: wall_s on census_a4 and walls_p3
    ("algebras.algebra_from_quiver.s", "s"),
    ("algebras.triangular_matrix_algebra.s", "s"),
    ("storage.load_algebra_file.s", "s"),
    ("storage.canonical_json.s", "s"),
    ("cli.main.self_s", "s"),
    *((f"cli.main.{job}.s", "s") for job in CENSUS_JOBS + WALLS_JOBS),  # untraced job time
    ("trace.overhead_s", "s"),                         # traced wall_s - untraced wall_s
    ("trace.spans", "count"),
]

_RECOLLEMENT_METRICS = [name for name, _ in PER_LAYER if name.startswith("recollements.")]
_CENSUS_METRICS = ["census.all_left_schur.s", "census.all_wide.s", "census.all_torf.s",
                   "census.oracle_subsets", "subcats.verify_bijection.s"]
# metrics that must be nonzero / exactly zero on a workload while the engine
# routes its work as it does now
EXPECT_NONZERO = {
    "fuzz_p2": ["fields.rref.calls", "modules.hom_basis.calls", "modules.ext1_basis.calls",
                "modules.decompose.calls", "modules.submodule_rows.calls",
                "modules.brute_force.tuples", "modules.is_indecomposable.calls",
                "modules.scan.elements", "subcats.hom_profile.calls",
                "algebras.triangular_matrix_algebra.s", *_RECOLLEMENT_METRICS],
    "census_a4": ["fields.rref.calls", "modules.hom_basis.calls", "modules.ext1_basis.calls",
                  "modules.decompose.calls", "modules.submodule_rows.calls",
                  "modules.is_isomorphic.calls", "modules.scan.elements",
                  *(f"subcats.{fn}.calls" for fn in CACHED), "subcats.filt_closure.calls",
                  *_CENSUS_METRICS, "storage.load_algebra_file.s",
                  "storage.canonical_json.s", "cli.main.self_s",
                  *(f"cli.main.{job}.s" for job in CENSUS_JOBS)],
    "walls_p3": ["fields.rref.calls", "modules.hom_basis.calls", "modules.brute_force.tuples",
                 "modules.is_indecomposable.calls", "modules.is_isomorphic.calls",
                 *(f"modules.build_universe.{job}.s" for job in WALLS_JOBS),
                 "storage.load_algebra_file.s", "storage.canonical_json.s", "cli.main.self_s",
                 *(f"cli.main.{job}.s" for job in WALLS_JOBS)],
}
EXPECT_ZERO = {
    "fuzz_p2": ["cli.main.self_s", *_CENSUS_METRICS],
    "census_a4": ["modules.brute_force.tuples", "algebras.triangular_matrix_algebra.s",
                  *_RECOLLEMENT_METRICS],
    "walls_p3": ["algebras.triangular_matrix_algebra.s", *_CENSUS_METRICS,
                 *_RECOLLEMENT_METRICS],
}


def install(tracer: Tracer) -> list[str]:
    """Wrap the engine; returns places that still hold an unwrapped original."""
    import importlib

    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("fields", "modules", "subcats", "census", "recollements",
                         "algebras", "storage", "cli")}
    counts = tracer.counts

    def patch(layer: str, attr: str, make):
        if tracer.patch_function(PACKAGE, mods[layer], attr, make) == 0:
            raise RuntimeError(f"{PACKAGE}.{layer}.{attr} not found")

    def add(key: str, n: int = 1):
        counts[key] += n

    def rref_shape(args, kwargs, result):
        rows, cols = (args[0] if args else kwargs["m"]).shape
        add("fields.rref.empty", rows == 0 or cols == 0)
        add("fields.rref.le3", rows <= 3 and cols <= 3)

    def oracle_subsets(args, kwargs, result):
        # the oracle route filters all 2^|universe| id subsets whenever it runs
        add("census.oracle_subsets", 2 ** len(args[0]) if result.oracle_ran else 0)

    after = {
        "rref": rref_shape,
        "submodule_rows": lambda a, k, r: add("modules.submodule_rows.submodules", len(r)),
        "is_isomorphic": lambda a, k, r: add("modules.is_isomorphic.true", bool(r)),
        "build_universe": lambda a, k, r: add(
            "modules.brute_force.kept", len(r) if r.strategy == "brute-force" else 0),
        "verify_theorem": lambda a, k, r: add(
            "recollements.verify_theorem.pairs_checked", r["pairs_checked"]),
        **{fn: oracle_subsets for fn in SPANNED["census"]},
    }
    for layer, fns in SPANNED.items():
        for fn in fns:
            patch(layer, fn, lambda f, layer=layer, fn=fn: tracer.spanned(
                f"{layer}.{fn}", f, after.get(fn)))

    def relations(args, kwargs, result):
        add("modules.brute_force.tuples")
        add("modules.brute_force.relation_ok", bool(result))

    patch("modules", "satisfies_relations", lambda f: tracer.counted(f, after=relations))
    patch("recollements", "build_recollement",
          lambda f: tracer.spanned("recollements.build", f))

    default_limit = mods["modules"].DEFAULT_THRESHOLDS.scan_limit

    def scan_needed(p_of):
        def before(args, kwargs):
            space = args[0]
            th = kwargs.get("thresholds")
            limit = th.scan_limit if th is not None else default_limit
            tracer.note_max("modules.scan.max_needed_frac", p_of(space) ** space.dim / limit)
        return before

    tracer.patch_method(mods["modules"].HomSpace, "elements", lambda f: tracer.yield_counted(
        "modules.scan.elements", f, scan_needed(lambda s: s.p)))
    tracer.patch_method(mods["modules"].Ext1, "all_cocycles", lambda f: tracer.yield_counted(
        "modules.scan.elements", f, scan_needed(lambda s: s.sub.p)))

    for fn, arity in CACHED.items():
        patch("subcats", fn, lambda f, fn=fn, arity=arity: tracer.counted(
            f, before=cache_probe(counts, f"subcats.{fn}", arity)))
    rec = mods["recollements"].Recollement
    tracer.patch_method(rec, "image_ids", lambda f: tracer.counted(
        f, before=cache_probe(counts, "recollements.image_ids", 2)))
    tracer.patch_method(rec, "apply_to_morphism", lambda f: tracer.counted(
        f, before=lambda a, k: add("recollements.apply_to_morphism.calls")))
    tracer.patch_method(rec, "is_i_shriek_exact",
                        lambda f: tracer.spanned("recollements.exactness", f))
    tracer.patch_method(rec, "_exactness_sequences", lambda f: tracer.yield_counted(
        "recollements.exactness.sequences", f))
    return tracer.stale_references(PACKAGE)


def cache_probe(counts, prefix: str, arity: int):
    """Count calls, and misses: keys the wrapper sees first on this owner (args[0])."""
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def before(args, kwargs):
        keys = seen.setdefault(args[0], set())
        key = tuple(args[1:1 + arity])
        counts[prefix + ".calls"] += 1
        if key not in keys:
            keys.add(key)
            counts[prefix + ".misses"] += 1
    return before


def metrics(tracer: Tracer, job_seconds: dict[str, float], overhead_s: float) -> dict:
    """Every PER_LAYER metric as {"value", "unit"}."""
    summary = tracer.summarize()
    counts = tracer.counts

    def span(name: str, stat: str) -> float:
        return summary.get(name, {}).get(stat, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer_fn, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "s") and layer_fn in summary:
            values[name] = span(layer_fn, stat)
    rref_calls = span("fields.rref", "calls")
    values["fields.rref.empty_frac"] = ratio(counts["fields.rref.empty"], rref_calls)
    values["fields.rref.le3_frac"] = ratio(counts["fields.rref.le3"], rref_calls)
    values["modules.submodule_rows.submodules"] = counts["modules.submodule_rows.submodules"]
    tuples = counts["modules.brute_force.tuples"]
    values["modules.brute_force.tuples"] = tuples
    values["modules.brute_force.relation_ok_frac"] = ratio(
        counts["modules.brute_force.relation_ok"], tuples)
    values["modules.brute_force.accept_frac"] = ratio(counts["modules.brute_force.kept"], tuples)
    values["modules.is_isomorphic.true_frac"] = ratio(
        counts["modules.is_isomorphic.true"], span("modules.is_isomorphic", "calls"))
    values["modules.scan.elements"] = counts["modules.scan.elements"]
    values["modules.scan.max_needed_frac"] = tracer.maxima.get("modules.scan.max_needed_frac", 0.0)
    for prefix in [f"subcats.{fn}" for fn in CACHED] + ["recollements.image_ids"]:
        values[prefix + ".calls"] = counts[prefix + ".calls"]
        values[prefix + ".miss_frac"] = ratio(counts[prefix + ".misses"], counts[prefix + ".calls"])
    for key in ("census.oracle_subsets", "recollements.exactness.sequences",
                "recollements.apply_to_morphism.calls",
                "recollements.verify_theorem.pairs_checked"):
        values[key] = counts[key]
    values.update(per_job_build_seconds(tracer))
    for job in CENSUS_JOBS + WALLS_JOBS:
        values[f"cli.main.{job}.s"] = job_seconds.get(job, 0.0)
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(tracer.start)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def per_job_build_seconds(tracer: Tracer) -> dict[str, float]:
    """Inclusive build_universe seconds under each walls job's top-level span."""
    out = {f"modules.build_universe.{job}.s": 0.0 for job in WALLS_JOBS}
    names = tracer.names
    top = roots(tracer.parent)
    build = tracer.name_id("modules.build_universe")
    for i, nid in enumerate(tracer.name):
        if nid == build and tracer.outer[i]:
            key = f"modules.build_universe.{names[tracer.name[top[i]]].removeprefix('job:')}.s"
            if key in out:
                out[key] += tracer.end[i] - tracer.start[i]
    return out


def binding_violations(workload: str, values: dict) -> list[str]:
    out = [f"{name} is 0" for name in EXPECT_NONZERO[workload] if not values[name]["value"]]
    out += [f"{name} is {values[name]['value']}, expected 0"
            for name in EXPECT_ZERO[workload] if values[name]["value"]]
    return out
