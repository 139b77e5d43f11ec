"""Exhaustive desk-scale enumeration and the worked-example reproduction.

Monobricks are enumerated as cliques of the pairwise-compatibility graph on
bricks (the monobrick condition is a condition on ordered pairs), and each
clique found is one state against enumeration_states.  Left
Schur and wide subcategories come through two independent routes that must
agree: the bijective route maps each monobrick through filt_closure, and the
oracle route filters every id subset by the direct predicate.  A
disagreement is a hard error carrying the instance.  A monobrick takes the
bijective route only if sim of its closure gives it back, which decides
whether its Filt is summand-closed (all_left_schur).  Torsion-free classes
come from a walk over the lattice of torsion-free closures (all_torf), which
needs no monobrick, and the same subset oracle checks it.

Every census reads its search budgets from the universe (`u.thresholds`),
and all_monobricks and all_left_schur run once per universe: modules.memo
keeps their results, ids and flags only, in the universe cache.  Budgets
are passed explicitly only where a universe is built: reproduce_table1 and
the fuzz sweeps, which hand them to every instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .algebras import (
    Algebra,
    Bimodule,
    IdempotentSpec,
    Quiver,
    algebra_from_quiver,
    canonical_bimodule_for_triangular,
    find_algebra_isomorphism,
    linear_quiver,
    point_algebra,
    triangular_matrix_algebra,
    validate_bimodule,
)
from .errors import (
    BudgetExceeded,
    InputError,
    SchurrecError,
    UniverseExhausted,
    VerificationFailure,
)
from .modules import DEFAULT_THRESHOLDS, IndecUniverse, Thresholds, memo
from .recollements import (
    Recollement,
    build_recollement,
    glue_bricks,
    glue_subcategory,
    restrict,
    verify_theorem,
)
from .subcats import (
    all_bricks,
    close,
    filt_closure,
    hom_profile,
    id_mask,
    is_cofinally_closed,
    is_left_schur,
    is_semibrick,
    is_torsion_free,
    is_wide,
    mask_ids,
    sim,
)


@dataclass
class CensusEntry:
    ids: tuple[int, ...]
    flags: dict = field(default_factory=dict)


@dataclass
class EnumerationResult:
    kind: str
    entries: list[CensusEntry]
    counts: dict
    oracle_ran: bool = True
    non_representable: list[tuple[int, ...]] = field(default_factory=list)


@memo
def all_monobricks(u: IndecUniverse) -> EnumerationResult:
    """Every brick subset in which all maps between members are zero or mono.

    Like all_left_schur, it runs once per universe, and every caller gets the
    same result object, so none may mutate it.  Each clique, the empty one
    included, is one state against enumeration_states, so the budget bounds
    the output, not the brick count.
    """
    bricks = mask_ids(all_bricks(u))
    limit = u.thresholds.enumeration_states
    mono = {(i, j): not hom_profile(u, i, j).exists_nonzero_noninjective
            for i in bricks for j in bricks if i != j}
    # the bricks that may share a monobrick with each: every map between the
    # two, either way, is zero or injective
    fits = {i: id_mask(j for j in bricks if j != i and mono[i, j] and mono[j, i])
            for i in bricks}
    cliques: list[tuple[int, ...]] = []

    def grow(start: int, current: tuple[int, ...], allowed: int) -> None:
        cliques.append(current)
        if len(cliques) > limit:
            raise BudgetExceeded("too many monobricks", needed=len(cliques), limit=limit)
        for k in range(start, len(bricks)):
            cand = bricks[k]
            if allowed >> cand & 1:
                grow(k + 1, current + (cand,), allowed & fits[cand])

    grow(0, (), all_bricks(u))
    entries = [CensusEntry(ids, {"semibrick": is_semibrick(u, id_mask(ids)),
                                 "cofinally_closed": is_cofinally_closed(u, id_mask(ids))})
               for ids in _by_size(cliques)]
    counts = {
        "bricks": len(bricks),
        "monobricks": len(entries),
        "semibricks": sum(1 for e in entries if e.flags["semibrick"]),
        "cc_monobricks": sum(1 for e in entries if e.flags["cofinally_closed"]),
    }
    return EnumerationResult("monobricks", entries, counts)


def _by_size(id_sets) -> list[tuple[int, ...]]:
    return sorted(id_sets, key=lambda t: (len(t), t))


def _oracle(u: IndecUniverse, kind: str, route: list[tuple[int, ...]], pred) -> bool:
    """Filter every id subset, as a mask, by the direct predicate and compare
    with the route; False if the 2^n subsets exceed subset_cap."""
    n = len(u)
    if 2 ** n > u.thresholds.subset_cap:
        return False
    direct = _by_size(mask_ids(bits) for bits in range(2 ** n) if pred(u, bits))
    if direct != route:
        raise VerificationFailure(f"{kind} routes disagree: route-only "
                                  f"{_by_size(set(route) - set(direct))}, oracle-only "
                                  f"{_by_size(set(direct) - set(route))}")
    return True


@memo
def all_left_schur(u: IndecUniverse) -> EnumerationResult:
    """Left Schur subcategories via the bijective route, oracle cross-checked.

    A monobrick whose Filt is not closed under direct summands corresponds to
    a left Schur subcategory that an id set cannot represent; such monobricks
    are listed in non_representable rather than silently merged.  Semibricks
    and cofinally closed monobricks can never land there: wide subcategories
    are closed under kernels of idempotents and torsion-free classes under
    submodules, so both are always summand-closed.

    A monobrick M is representable iff sim(filt_closure(M)) = M.  Let S be
    the closure and T = add S; T is extension- and summand-closed and
    contains Filt M.
    - If sim T = M, then T = Filt(sim T) = Filt M: in a length category every
      object of an extension-closed subcategory is filtered by that
      subcategory's simple objects (induct on length).
    - If Filt M is summand-closed, then T is contained in Filt M, since T is
      the smallest extension- and summand-closed class containing M.  So
      T = Filt M, and sim T = M because M -> Filt M and E -> sim E are
      inverse bijections between monobricks and left Schur subcategories
      (Enomoto).
    The second step needs M to be a monobrick, and only monobricks reach it.
    """
    mono = all_monobricks(u)
    closures: dict[tuple[int, ...], tuple[int, ...]] = {}
    non_representable: list[tuple[int, ...]] = []
    for entry in mono.entries:
        m = id_mask(entry.ids)
        c = filt_closure(u, m)
        if sim(u, c) != m:
            if entry.flags["semibrick"] or entry.flags["cofinally_closed"]:
                raise VerificationFailure(
                    f"summand-closure failed for the {'semibrick' if entry.flags['semibrick'] else 'cc monobrick'} "
                    f"{list(entry.ids)}, but wide/torsion-free classes are always "
                    "summand-closed; this flags a bug"
                )
            non_representable.append(entry.ids)
            continue
        ids = mask_ids(c)
        if ids in closures:
            raise VerificationFailure(
                f"distinct monobricks {list(closures[ids])} and {list(entry.ids)} "
                f"close to the same subcategory {list(ids)}"
            )
        closures[ids] = entry.ids
    route_bijection = _by_size(closures)
    oracle_ran = _oracle(u, "left Schur", route_bijection, is_left_schur)
    entries = [CensusEntry(ids, {"wide": is_wide(u, id_mask(ids)),
                                 "torsion_free": is_torsion_free(u, id_mask(ids)),
                                 "monobrick": closures[ids]})
               for ids in route_bijection]
    counts = {
        "left_schur": len(entries),
        "wide": sum(1 for e in entries if e.flags["wide"]),
        "torsion_free": sum(1 for e in entries if e.flags["torsion_free"]),
        "non_representable_monobricks": len(non_representable),
    }
    return EnumerationResult("left_schur", entries, counts, oracle_ran, non_representable)


def all_wide(u: IndecUniverse) -> EnumerationResult:
    entries = [e for e in all_left_schur(u).entries if e.flags["wide"]]
    oracle_ran = _oracle(u, "wide", [e.ids for e in entries], is_wide)
    return EnumerationResult("wide", entries, {"wide": len(entries)}, oracle_ran)


def all_torf(u: IndecUniverse) -> EnumerationResult:
    """Torsion-free classes by a walk over their lattice, oracle cross-checked.

    From F = 0, the walk closes F ∪ {B} under submodules and extensions
    (subcats.close) for every brick B outside F, and keeps each distinct
    closure; every closure is a torsion-free class.  The walk is complete: a
    torsion-free class F is the closure of its bricks, since F = Filt(sim F)
    and the members of sim F are bricks.  Adding those bricks one at a time
    gives a chain 0 = F_0 ⊆ F_1 ⊆ ... ⊆ F_k = F in which F_i is the closure
    of F_(i-1) and one brick, so the walk reaches each F_i in turn.  The
    upper covers of F are among the closures made from it, each the closure
    of F and its brick label (Demonet, Iyama, Reading, Reiten and Thomas,
    Lattice theory of torsion classes).  The walk reads only pairs and
    members inside torsion-free classes, and every class found is one state
    against enumeration_states.

    Entries keep the flags of the left Schur census: monobrick is sim F, the
    cofinally closed monobrick of F.
    """
    limit = u.thresholds.enumeration_states
    bricks = mask_ids(all_bricks(u))
    found, seen = [0], {0}
    for f in found:  # the list grows while the walk reads it
        for b in bricks:
            if not f >> b & 1:
                g = close(u, f, 1 << b, submodules=True)
                if g not in seen:
                    seen.add(g)
                    found.append(g)
                    if len(found) > limit:
                        raise BudgetExceeded("too many torsion-free classes",
                                             needed=len(found), limit=limit)
    route = _by_size(mask_ids(f) for f in found)
    entries = [CensusEntry(ids, {"wide": is_wide(u, id_mask(ids)), "torsion_free": True,
                                 "monobrick": mask_ids(sim(u, id_mask(ids)))})
               for ids in route]
    oracle_ran = _oracle(u, "torf", route, is_torsion_free)
    return EnumerationResult("torf", entries, {"torf": len(entries)}, oracle_ran)


# ---------------------------------------------------------------------------
# the worked three-term example: B = kA2, C = k, A = kA3


def example_algebras(p: int):
    """(B, C, A, canonical bimodule) of the linear three-vertex example."""
    b = algebra_from_quiver(linear_quiver(["2", "3"]), None, p)
    c = point_algebra(p, "1")
    a = algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, p)
    bim = canonical_bimodule_for_triangular(b, c, {"1": "2"}, p)
    return b, c, a, bim


TABLE1_BOUND = 3  # every indecomposable of kA3 has dimension at most 3


def reproduce_table1(p: int = 2, thresholds: Thresholds = DEFAULT_THRESHOLDS
                     ) -> tuple[dict, Recollement]:
    """Glue every (monobrick of mod B) x (monobrick of mod C) pair and classify.

    Builds A both from its quiver and as the triangular matrix algebra (the
    two must be isomorphic), glues through the recollement at the corner
    vertex, and checks the full classification of the resulting left Schur
    subcategories of mod A.  Returns the report and the recollement.
    """
    b, c, a, bim = example_algebras(p)
    a_tri, tri_data = triangular_matrix_algebra(b, c, bim)
    iso = find_algebra_isomorphism(a_tri, a)
    report: dict = {
        "char": p,
        "bound": TABLE1_BOUND,
        "triangular_matches_quiver": iso is not None,
        "rows": [],
        "ok": True,
        "failures": [],
    }

    def check(name: str, cond: bool, payload=None):
        if not cond:
            report["ok"] = False
            report["failures"].append({"check": name, "payload": payload})

    check("triangular_matches_quiver", iso is not None)
    e = IdempotentSpec(a, (0,))  # vertex "1", the corner the C-side lives at
    r = build_recollement(a, e, bound=TABLE1_BOUND, thresholds=thresholds)
    exact, cert = r.is_i_shriek_exact()
    check("i_shriek_exact", exact, cert.as_dict())

    mono_b = all_monobricks(r.u_b)
    mono_c = all_monobricks(r.u_c)
    check("six_monobricks_in_mod_B", len(mono_b.entries) == 6,
          {"found": len(mono_b.entries)})
    check("two_monobricks_in_mod_C", len(mono_c.entries) == 2,
          {"found": len(mono_c.entries)})

    seen = set()
    for eb in mono_b.entries:
        m_y = id_mask(eb.ids)
        filt_y = filt_closure(r.u_b, m_y)
        for ec in mono_c.entries:
            m_z = id_mask(ec.ids)
            filt_z = filt_closure(r.u_c, m_z)
            glued = glue_bricks(r, m_y, m_z)
            closure = filt_closure(r.u_a, glued)
            comprehension = glue_subcategory(r, filt_y, filt_z, "schur")
            schur = is_left_schur(r.u_a, closure)
            row = {
                "b_monobrick": list(eb.ids),
                "c_monobrick": list(ec.ids),
                "glued_monobrick": list(mask_ids(glued)),
                "subcategory": list(mask_ids(closure)),
                "left_schur": schur,
                "wide": is_wide(r.u_a, closure),
                "torsion_free": is_torsion_free(r.u_a, closure),
                "b_semibrick": eb.flags["semibrick"],
                "b_cofinally_closed": eb.flags["cofinally_closed"],
                "c_semibrick": ec.flags["semibrick"],
                "c_cofinally_closed": ec.flags["cofinally_closed"],
            }
            report["rows"].append(row)
            check("row_is_left_schur", schur, row)
            check("row_matches_comprehension", closure == comprehension, row)
            check("row_distinct", closure not in seen, row)
            seen.add(closure)
            check("row_restricts_back", restrict(r, closure) == (filt_y, filt_z), row)

    check("twelve_rows", len(report["rows"]) == 12, {"found": len(report["rows"])})
    not_torf = [row for row in report["rows"] if not row["torsion_free"]]
    not_wide = [row for row in report["rows"] if not row["wide"]]
    check("two_rows_not_torsion_free", len(not_torf) == 2, {"found": len(not_torf)})
    check("two_rows_not_wide", len(not_wide) == 2, {"found": len(not_wide)})
    check("not_torf_rows_are_non_cc_B_side",
          all(not row["b_cofinally_closed"] for row in not_torf)
          and all(row["torsion_free"] or not row["b_cofinally_closed"]
                  for row in report["rows"]))
    check("not_wide_rows_are_non_semibrick_B_side",
          all(not row["b_semibrick"] for row in not_wide)
          and all(row["wide"] or not row["b_semibrick"] for row in report["rows"]))
    report["universe"] = {
        "mod_A": [list(r.u_a.module(i).dims) for i in r.u_a.ids],
        "mod_B": [list(r.u_b.module(i).dims) for i in r.u_b.ids],
        "mod_C": [list(r.u_c.module(i).dims) for i in r.u_c.ids],
    }
    return report, r


# ---------------------------------------------------------------------------
# fuzzing: random triangular matrix algebras


_EDGE_FAMILIES = ("point", "two_points", "arrow", "truncated_loop")


def random_edge_algebra(rng: random.Random, p: int, prefix: str) -> Algebra:
    family = rng.choice(_EDGE_FAMILIES)
    if family == "point":
        return point_algebra(p, f"{prefix}1")
    if family == "two_points":
        q = Quiver((f"{prefix}1", f"{prefix}2"), ())
        return algebra_from_quiver(q, None, p)
    if family == "arrow":
        q = Quiver((f"{prefix}1", f"{prefix}2"),
                   ((f"{prefix}a", f"{prefix}1", f"{prefix}2"),))
        return algebra_from_quiver(q, None, p)
    q = Quiver((f"{prefix}1",), ((f"{prefix}x", f"{prefix}1", f"{prefix}1"),))
    return algebra_from_quiver(q, [[(1, [f"{prefix}x", f"{prefix}x"])]], p)


BIMODULE_MAX_DIM = 2
BIMODULE_ATTEMPTS = 60  # draws before falling back to the zero bimodule


def random_bimodule(rng: random.Random, b: Algebra, c: Algebra) -> Bimodule:
    p = b.p
    for _ in range(BIMODULE_ATTEMPTS):
        dim = rng.randint(0, BIMODULE_MAX_DIM)
        if dim == 0:
            return Bimodule(0)
        slots = [(rng.randrange(c.nv), rng.randrange(b.nv)) for _ in range(dim)]
        left = {k: np.zeros((dim, dim), dtype=np.int64) for k in range(c.dim)}
        right = {k: np.zeros((dim, dim), dtype=np.int64) for k in range(b.dim)}
        for j, (cv, _) in enumerate(slots):
            left[cv][j, j] = 1
        for j, (_, bv) in enumerate(slots):
            right[bv][j, j] = 1
        for g in range(c.nv, c.dim):
            w, w2 = c.src[g], c.tgt[g]
            for j, (cv, bvj) in enumerate(slots):
                if cv != w:
                    continue
                for i, (cv2, bvi) in enumerate(slots):
                    if cv2 == w2 and bvi == bvj:
                        left[g][i, j] = rng.randrange(p)
        for g in range(b.nv, b.dim):
            v, v2 = b.src[g], b.tgt[g]
            for j, (cvj, bv) in enumerate(slots):
                if bv != v:
                    continue
                for i, (cvi, bv2) in enumerate(slots):
                    if bv2 == v2 and cvi == cvj:
                        right[g][i, j] = rng.randrange(p)
        bim = Bimodule(dim, left, right)
        try:
            validate_bimodule(b, c, bim)
        except InputError:
            continue
        return bim
    return Bimodule(0)


def random_triangular_instance(rng: random.Random, p: int = 2):
    """[[B, 0], [M, C]] on random edge algebras and bimodule.  Every edge family
    has a vertex, so the corner idempotent data.e is proper and nonempty."""
    b = random_edge_algebra(rng, p, "b")
    c = random_edge_algebra(rng, p, "c")
    bim = random_bimodule(rng, b, c)
    alg, data = triangular_matrix_algebra(b, c, bim)
    return alg, data


def fuzz_exactness_sweep(count: int, seed: int, p: int = 2, bound: int = 3,
                         thresholds: Thresholds = DEFAULT_THRESHOLDS,
                         workers: int = 1) -> dict:
    """Exactness machinery on random triangular algebras, both corner choices.

    For each instance the structural and direct verdicts must agree (the
    implementation raises on disagreement), the canonical corner choice must
    be exact, and when a choice is exact, the objectwise consequences hold.
    """
    report: dict = {"seed": seed, "count": count, "char": p, "bound": bound}
    jobs = [(_exactness_one, seed + k, p, bound, thresholds)
            for k in range(count)]
    return _fuzz_sweep(report, jobs, workers)


def fuzz_theorem_sweep(count: int, seed: int, laws=("3.2", "3.3", "3.4", "3.5"),
                       p: int = 2, bound: int = 3,
                       thresholds: Thresholds = DEFAULT_THRESHOLDS,
                       workers: int = 1) -> dict:
    """Gluing-law sweeps on random triangular algebras (canonical corner)."""
    report: dict = {"seed": seed, "count": count, "laws": list(laws)}
    jobs = [(_theorem_one, seed + k, p, bound, thresholds, tuple(laws))
            for k in range(count)]
    return _fuzz_sweep(report, jobs, workers)


def _fuzz_sweep(report: dict, jobs: list[tuple], workers: int) -> dict:
    """Run every job, in a pool of worker processes when workers > 1, and tally.

    A job is (instance function, seed, p, bound, thresholds, *extra); the
    instance function and the frozen Thresholds both pickle for the pool.
    """
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fuzz_instance, jobs))
    else:
        results = [_fuzz_instance(job) for job in jobs]
    report.update({"instances": results, "ok": True, "skipped": 0, "checked": 0})
    for entry in results:
        if entry.get("skipped"):
            report["skipped"] += 1
            continue
        report["checked"] += 1
        if not entry["ok"]:
            report["ok"] = False
    return report


def _fuzz_instance(job: tuple) -> dict:
    """One instance; a budget or the universe bound running out makes it a skip."""
    one, seed, *args = job
    try:
        return one(random.Random(seed), seed, *args)
    except (BudgetExceeded, UniverseExhausted) as exc:
        return {"seed": seed, "skipped": True, "reason": str(exc)}
    except SchurrecError as exc:
        return {"seed": seed, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _exactness_one(rng: random.Random, seed: int, p: int, bound: int,
                   thresholds: Thresholds) -> dict:
    entry: dict = {"seed": seed, "ok": True}
    alg, data = random_triangular_instance(rng, p)
    entry["dim"] = alg.dim
    sides = {}
    u_a = None  # both sides share the A-universe of the first
    for name, verts in (("canonical", data.e.vertices),
                        ("complement", data.e.complement)):
        r = build_recollement(alg, IdempotentSpec(alg, verts), bound=bound,
                              thresholds=thresholds, self_check=False, universe=u_a)
        u_a = r.u_a
        exact, cert = r.is_i_shriek_exact()
        side: dict = {"exact": exact, "certificate": cert.as_dict()}
        if exact:
            cons = r.exactness_consequences_report()
            side["consequences_ok"] = cons["ok"]
            if not cons["ok"]:
                entry["ok"] = False
                side["counterexamples"] = cons["counterexamples"]
        sides[name] = side
    entry["sides"] = sides
    if not sides["canonical"]["exact"]:
        # the corner side of a lower-triangular algebra always has exact i^!
        entry["ok"] = False
        entry["error"] = "canonical corner is not exact"
    return entry


def _theorem_one(rng: random.Random, seed: int, p: int, bound: int,
                 thresholds: Thresholds, laws: tuple[str, ...]) -> dict:
    entry: dict = {"seed": seed, "ok": True, "laws": {}}
    alg, data = random_triangular_instance(rng, p)
    entry["dim"] = alg.dim
    r = build_recollement(alg, data.e, bound=bound, thresholds=thresholds, self_check=False)
    for law in laws:
        res = verify_theorem(r, law)
        entry["laws"][law] = {
            "ok": res["ok"],
            "pairs_checked": res["pairs_checked"],
            "skipped": res.get("skipped", False),
        }
        if not res["ok"]:
            entry["ok"] = False
            entry["laws"][law]["counterexamples"] = res["counterexamples"]
    return entry
