"""Brick sets, Filt and sim, and the subcategory predicates.

A Subcategory is the additive, iso-closed, summand-closed hull of a finite
set of indecomposable universe ids; a module belongs to it iff every
indecomposable summand does.  A BrickSet is a set of ids each of which is a
verified brick.

Extension closure is tested over all cocycles of every ordered member pair
(not just basis cocycles: the middle term is not additive in the class), and
the wide test scans every element of each Hom space, because kernels are not
additive in the morphism either.  Per-pair and per-member tables are
computed once per universe through modules.memo, so exhaustive sweeps stay
cheap.  They share the universe's one Hom space per member pair
(IndecUniverse.hom_space), one brick verdict per member, and its submodule
sequences (modules.submodule_sequences).  The summand audit keeps its
filtration witnesses in the same universe cache, shared by every audit of
the universe: merged witnesses with their verdicts under derivation keys,
and failed fallback searches under isomorphism-invariant keys
(summand_audit).

Search budgets belong to the universe: every function here reads
`u.thresholds`, fixed when the universe was built, so a cached result and
any BudgetExceeded depend on the universe alone, not on the order of calls.

Conventions: the empty id set represents the zero subcategory {0}; it is a
semibrick, a monobrick and cofinally closed, and {0} is simultaneously
torsion-free, wide and left Schur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as ff
from .errors import InputError
from .modules import (
    IndecUniverse,
    Module,
    Morphism,
    ShortExactSequence,
    cokernel,
    decompose,
    is_brick,
    is_injective,
    is_isomorphic_to_indecomposable,
    isomorphism_from_indecomposable,
    kernel,
    memo,
    middle_term,
    quotient_by_rows,
    submodule_from_rows,
    submodule_rows,
    submodule_sequences,
)


@dataclass(frozen=True)
class BrickSet:
    universe: IndecUniverse
    ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(sorted(set(self.ids))))


def brick_set(universe: IndecUniverse, ids, *, validate: bool = True) -> BrickSet:
    ids = tuple(sorted(set(int(i) for i in ids)))
    if any(i < 0 or i >= len(universe) for i in ids):
        raise InputError("brick set id outside the universe")
    if validate:
        for i in ids:
            if not _is_brick(universe, i):
                raise InputError(f"universe member {i} is not a brick")
    return BrickSet(universe, ids)


def all_bricks(u: IndecUniverse) -> BrickSet:
    """The bricks of the universe; the memo keeps their ids, not the BrickSet."""
    return BrickSet(u, _brick_ids(u))


@memo
def _is_brick(u: IndecUniverse, uid: int) -> bool:
    return is_brick(u.module(uid), u.thresholds, u.hom_space(uid, uid).basis)


@memo
def _brick_ids(u: IndecUniverse) -> tuple[int, ...]:
    return tuple(i for i in u.ids if _is_brick(u, i))


@dataclass(frozen=True)
class Subcategory:
    universe: IndecUniverse
    ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(sorted(set(self.ids))))
        if any(i < 0 or i >= len(self.universe) for i in self.ids):
            raise InputError("subcategory id outside the universe")


# ---------------------------------------------------------------------------
# cached per-pair data on the universe


@dataclass(frozen=True)
class HomProfile:
    """dim Hom(M_i, M_j), and whether some element is injective and some
    nonzero element is not."""

    dim: int
    exists_injective: bool
    exists_nonzero_noninjective: bool


@memo
def hom_profile(u: IndecUniverse, i: int, j: int) -> HomProfile:
    hom = u.hom_space(i, j)
    injective = [is_injective(f) for f in hom.elements(thresholds=u.thresholds)]
    return HomProfile(hom.dim, any(injective), not all(injective))


@memo
def ext_middles(u: IndecUniverse, quot_id: int, sub_id: int):
    """Summands of the middle term of every nonzero class in Ext^1(quot, sub).

    A class is an arrow cocycle phi (see modules.Ext1), and its middle term is
    the block module quot ⊕ sub on which arrow a acts as [[quot_a, phi_a], [0, sub_a]].
    """
    ext = u.ext_space(quot_id, sub_id)
    return tuple(decompose(middle_term(ext, c).middle, u)
                 for c in ext.all_cocycles(thresholds=u.thresholds))


@memo
def submodule_decomps(u: IndecUniverse, uid: int):
    """(sub summands, quotient summands) for every proper nonzero submodule."""
    return tuple((decompose(sub, u), decompose(parts.module, u))
                 for sub, _, parts in submodule_sequences(u, uid))


@memo
def hom_element_kernels(u: IndecUniverse, i: int, j: int):
    """(kernel summands, cokernel summands) for every nonzero map i -> j."""
    return tuple((decompose(kernel(f)[0], u), decompose(cokernel(f)[0], u))
                 for f in u.hom_space(i, j).elements(thresholds=u.thresholds))


# ---------------------------------------------------------------------------
# brick-set predicates


def is_semibrick(s: BrickSet) -> bool:
    """Hom vanishes between all distinct members."""
    for i in s.ids:
        for j in s.ids:
            if i != j and hom_profile(s.universe, i, j).dim:
                return False
    return True


def is_monobrick(s: BrickSet) -> bool:
    """Every map between members (endomorphisms included) is zero or injective."""
    for i in s.ids:
        for j in s.ids:
            if hom_profile(s.universe, i, j).exists_nonzero_noninjective:
                return False
    return True


def is_cofinally_closed(s: BrickSet) -> bool:
    """No brick of the universe outside s embeds into a member without a
    nonzero non-injection into some member."""
    u = s.universe
    inside = set(s.ids)
    for n in _brick_ids(u):
        if n in inside:
            continue
        embeds = any(hom_profile(u, n, m).exists_injective for m in s.ids)
        if not embeds:
            continue
        escapes = any(hom_profile(u, n, m2).exists_nonzero_noninjective for m2 in s.ids)
        if not escapes:
            return False
    return True


# ---------------------------------------------------------------------------
# Filt, sim, and the subcategory predicates


def filt_closure(u: IndecUniverse, ids) -> Subcategory:
    """Least fixpoint adjoining indecomposable summands of all middle terms.

    Closing over indecomposable ordered pairs suffices: once all their middle
    terms decompose into the set, extensions of arbitrary direct sums follow
    by splitting off one summand at a time.
    """
    current = set(int(i) for i in ids)
    changed = True
    while changed:
        changed = False
        for x in sorted(current):
            for z in sorted(current):
                for summands in ext_middles(u, z, x):
                    for s in summands:
                        if s not in current:
                            current.add(s)
                            changed = True
    return Subcategory(u, tuple(sorted(current)))


def sim(u: IndecUniverse, e: Subcategory) -> frozenset[int]:
    """Simple objects of an extension-closed subcategory (ids).

    Only indecomposable members can be simple: a decomposable U ⊕ V sits in
    the sequence 0 -> U -> U⊕V -> V -> 0 with both ends in the (summand
    closed) subcategory.  That reduction is covered by a dedicated test.
    """
    members = set(e.ids)
    out = []
    for m in e.ids:
        simple = True
        for sub_ids, quot_ids in submodule_decomps(u, m):
            if set(sub_ids) <= members and set(quot_ids) <= members:
                simple = False
                break
        if simple:
            out.append(m)
    return frozenset(out)


def is_left_schurian(u: IndecUniverse, m_id: int, e: Subcategory) -> bool:
    """Every map from the member into the subcategory is zero or injective.

    Indecomposable targets suffice: a map into a direct sum is injective iff
    the component kernels intersect trivially, so a non-injection into a sum
    forces a non-injection into one summand of a smaller sum or exhibits one
    directly; the reduction is property-tested against direct scans.
    """
    for c in e.ids:
        if hom_profile(u, m_id, c).exists_nonzero_noninjective:
            return False
    return True


def is_extension_closed(u: IndecUniverse, e: Subcategory) -> bool:
    members = set(e.ids)
    for x in e.ids:
        for z in e.ids:
            for summands in ext_middles(u, z, x):
                if not set(summands) <= members:
                    return False
    return True


def is_left_schur(u: IndecUniverse, e: Subcategory) -> bool:
    if not is_extension_closed(u, e):
        return False
    return all(is_left_schurian(u, m, e) for m in sim(u, e))


def is_torsion_free(u: IndecUniverse, e: Subcategory) -> bool:
    if not is_extension_closed(u, e):
        return False
    members = set(e.ids)
    for m in e.ids:
        for sub_ids, _ in submodule_decomps(u, m):
            if not set(sub_ids) <= members:
                return False
    return True


def is_wide(u: IndecUniverse, e: Subcategory) -> bool:
    if not is_extension_closed(u, e):
        return False
    members = set(e.ids)
    for i in e.ids:
        for j in e.ids:
            for ker_ids, coker_ids in hom_element_kernels(u, i, j):
                if not set(ker_ids) <= members or not set(coker_ids) <= members:
                    return False
    return True


# ---------------------------------------------------------------------------
# filtrations


@dataclass
class Filtration:
    """Chain 0 = X_0 ⊂ X_1 ⊂ ... ⊂ X_n = X with recorded subquotient classes.

    chain[k] is the per-vertex row basis of X_k inside the ambient module;
    classes[k] is the universe id of X_{k+1} / X_k.
    """

    universe: IndecUniverse
    ambient: Module
    chain: list[tuple[np.ndarray, ...]]
    classes: tuple[int, ...]

    def validate(self) -> bool:
        """Check the chain and each subquotient's class.

        Classes are universe members, hence indecomposable, so the linear
        is_isomorphic_to_indecomposable test decides each subquotient exactly.
        """
        u = self.universe
        p = self.ambient.p
        if len(self.chain) != len(self.classes) + 1:
            return False
        if any(r.shape[0] for r in self.chain[0]):
            return False
        top = self.chain[-1]
        if sum(r.shape[0] for r in top) != self.ambient.total_dim:
            return False
        for k in range(len(self.classes)):
            lo, hi = self.chain[k], [ff.row_space_basis(b, p) for b in self.chain[k + 1]]
            inner = [ff.coordinates(a, b, p) for a, b in zip(lo, hi)]
            if any(c is None for c in inner):
                return False
            if sum(r.shape[0] for r in self.chain[k + 1]) <= sum(r.shape[0] for r in lo):
                return False
            sub, _ = submodule_from_rows(self.ambient, hi)
            quot = quotient_by_rows(sub, inner).module
            if not is_isomorphic_to_indecomposable(u.module(self.classes[k]), quot):
                return False
        return True


def _image_rows(f: Morphism, rows: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Row bases of the image under f of the given row spaces of its source."""
    return tuple(ff.row_space_basis(ff.mul(r, f.mats[v], f.p), f.p) for v, r in enumerate(rows))


def carry_filtration(f: Filtration, iso: Morphism) -> Filtration:
    """The image of a filtration of iso.src under an isomorphism: one of iso.dst."""
    return Filtration(f.universe, iso.dst, [_image_rows(iso, rows) for rows in f.chain],
                      f.classes)


def _preimage_rows(pi: Morphism, rows: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Rows of {v : v @ pi lies in the given row space of the target}."""
    p = pi.p
    projs = [ff.complement(r, range(d), p)[1] for r, d in zip(rows, pi.dst.dims)]
    return tuple(ff.row_kernel(ff.mul(f, proj, p), p) for f, proj in zip(pi.mats, projs))


def merge_filtrations(ses: ShortExactSequence, fx: Filtration, fz: Filtration) -> Filtration:
    """Concatenate a filtration of the sub with the preimage of one of the quotient.

    The new chain is 0 = X_0 ⊂ ... ⊂ X_m = L ≅ Y_0 ⊂ Y_1 ⊂ ... ⊂ Y_n = M with
    Y_j the preimage of Z_j under the epi; the class list is fx's followed by
    fz's.
    """
    if fx.ambient is not ses.sub:
        raise InputError("first filtration does not filter the sub of the sequence")
    if fz.ambient is not ses.quot:
        raise InputError("second filtration does not filter the quotient of the sequence")
    chain = [_image_rows(ses.mono, rows) for rows in fx.chain]
    for rows in fz.chain[1:]:
        chain.append(_preimage_rows(ses.epi, rows))
    return Filtration(fx.universe, ses.middle, chain, fx.classes + fz.classes)


def _zero_rows(m: Module) -> tuple[np.ndarray, ...]:
    return tuple(ff.zeros(0, d) for d in m.dims)


def _one_step(u: IndecUniverse, m: Module, uid: int) -> Filtration:
    """The filtration 0 ⊂ m of a module m ≅ u.module(uid)."""
    return Filtration(u, m, [_zero_rows(m), tuple(ff.eye(d) for d in m.dims)], (uid,))


def filtration_witness(u: IndecUniverse, m: Module, class_ids) -> Filtration | None:
    """Search for an explicit filtration of m with subquotients in class_ids.

    A submodule can start the chain only if it is isomorphic to a class, so
    a row set whose dimension vector (the tuple of its row counts) is no
    class's is skipped before the submodule is built and decomposed.

    Failed searches are remembered in the universe cache under
    (decompose(m, u), the classes whose dimension vector is <= dims(m)
    componentwise).  The key decides the answer: every subquotient of m has a
    dimension vector <= dims(m), so the other classes never take part, and
    whether a filtration exists does not change under isomorphism.  Successes
    are not remembered, so a search that succeeds returns the same chain
    whatever searches ran before it.
    """
    zero_rows = _zero_rows(m)
    if m.is_zero:
        return Filtration(u, m, [zero_rows], ())
    classes = tuple(c for c in sorted(set(int(i) for i in class_ids))
                    if all(a <= b for a, b in zip(u.module(c).dims, m.dims)))
    failures = u.cache.setdefault(("filtration_failures",), set())
    key = (decompose(m, u), classes)
    if key in failures:
        return None
    class_dims = {u.module(c).dims for c in classes}
    for rows in submodule_rows(m, u.thresholds):
        if tuple(r.shape[0] for r in rows) not in class_dims:
            continue
        sub, _ = submodule_from_rows(m, list(rows))
        sub_ids = decompose(sub, u)
        if len(sub_ids) != 1 or sub_ids[0] not in classes:
            continue
        parts = quotient_by_rows(m, list(rows))
        rest = filtration_witness(u, parts.module, classes)
        if rest is None:
            continue
        chain = [zero_rows, tuple(ff.row_space_basis(r, m.p) for r in rows)]
        for upper in rest.chain[1:]:
            chain.append(_preimage_rows(parts.projection, upper))
        return Filtration(u, m, chain, (sub_ids[0],) + rest.classes)
    failures.add(key)
    return None


def _witness_entries(u: IndecUniverse, generators: list[int]) -> dict[int, tuple]:
    """uid -> (chain, classes, valid) of the merged witness of each member reached.

    Each generator filters itself in one step.  When x and z have witnesses
    and a class in Ext^1(z, x) has an indecomposable middle term E ≅ u_k
    (read off the cached ext_middles table), merging the two witnesses along
    0 -> x -> E -> z -> 0 filters E, and an isomorphism E -> u_k carries the
    chain to u_k.  Each ordered pair of witnessed members is visited once,
    when the later of the two gets its witness.

    The entries live in the universe's witness store under derivation keys
    (summand_audit), so merging, carrying and Filtration.validate run once
    per key per universe.  The store keeps row bases and ids only: a
    Filtration refers back to the universe, and the ambient of a member's
    witness is always u.module(uid).
    """
    store = u.cache.setdefault(("witnesses",), {})

    def remember(key, f: Filtration):
        store[key] = (tuple(f.chain), f.classes, f.validate())

    def witness(uid: int) -> Filtration:
        chain, classes, _ = store[keys[uid]]
        return Filtration(u, u.module(uid), list(chain), classes)

    keys = {g: ("gen", g) for g in generators}
    for g, key in keys.items():
        if key not in store:
            remember(key, _one_step(u, u.module(g), g))
    queue = list(keys)
    done: list[int] = []
    while queue:
        y = queue.pop(0)
        done.append(y)
        for x, z in [(y, w) for w in done] + [(w, y) for w in done[:-1]]:
            todo = {k: ids[0] for k, ids in enumerate(ext_middles(u, z, x))
                    if len(ids) == 1 and ids[0] not in keys}
            if not todo:
                continue
            ext = u.ext_space(z, x)
            for k, c in enumerate(ext.all_cocycles(thresholds=u.thresholds)):
                if k not in todo or todo[k] in keys:
                    continue
                key = (keys[x], keys[z], k, todo[k])
                if key not in store:
                    ses = middle_term(ext, c)
                    merged = merge_filtrations(ses, witness(x), witness(z))
                    iso = isomorphism_from_indecomposable(ses.middle, u.module(todo[k]))
                    assert iso is not None, "ext_middles named a non-isomorphic member"
                    remember(key, carry_filtration(merged, iso))
                keys[todo[k]] = key
                queue.append(todo[k])
    return {uid: store[key] for uid, key in keys.items()}


def summand_audit(u: IndecUniverse, closure: Subcategory, generators) -> dict:
    """Re-validate that every closure member has an explicit generator filtration.

    Witnesses follow how members entered the closure: generators filter
    themselves, and indecomposable middle terms of extensions between
    witnessed members get the merge of the two witnesses (_witness_entries).
    Only the members left over, which arise only as summands of decomposable
    middle terms, go to the filtration_witness search.  Every witness, merged
    or searched, must pass Filtration.validate.

    Both kinds of witness are shared by all audits of the universe.  Merged
    witnesses and their verdicts are stored under derivation keys: ("gen", g)
    for a generator, and (key_x, key_z, k, target) for the merge along
    cocycle k of Ext^1(z, x).  Merging is deterministic, so a key fixes the
    chain, and a stored verdict is the verdict of the very chain this audit
    would build.  Failed searches are stored under (decompose(m, u), the
    classes of dimension <= dims(m)), which decides the answer
    (filtration_witness).  So no verdict depends on which monobricks were
    audited before.

    A miss means Filt of the generators is not closed under direct summands,
    which the id-set representation cannot express; it is reported, never
    silently patched.
    """
    gens = sorted(set(int(i) for i in generators))
    merged = _witness_entries(u, gens)
    report = {"ok": True, "members": {}, "misses": []}
    for uid in closure.ids:
        if uid in merged:
            _, _, valid = merged[uid]
        else:
            witness = filtration_witness(u, u.module(uid), gens)
            valid = witness is not None and witness.validate()
        report["members"][uid] = bool(valid)
        if not valid:
            report["ok"] = False
            report["misses"].append(uid)
    return report


def verify_bijection(u: IndecUniverse) -> dict:
    """Round-trip checks of the monobrick <-> left Schur correspondence.

    sim(filt_closure(M)) = M for every monobrick, filt_closure(sim(E)) = E for
    every left Schur subcategory, and the restrictions pair wide with
    semibricks and torsion-free with cofinally closed monobricks.

    Monobricks whose Filt is not summand-closed cannot be represented as id
    sets; they are reported under non_representable and the counting law is
    stated against the representable ones.  The wide/semibrick and
    torf/cc-monobrick pairings are unaffected (those classes are always
    summand-closed) and are asserted unconditionally.
    """
    from .census import all_left_schur, all_monobricks

    mono = all_monobricks(u)
    schur = all_left_schur(u)
    skip = set(schur.non_representable)
    report: dict = {"ok": True, "laws": {}, "counterexamples": [],
                    "non_representable": [list(t) for t in schur.non_representable]}

    def law(name: str, ok: bool, payload=None):
        report["laws"][name] = report["laws"].get(name, True) and bool(ok)
        if not ok:
            report["ok"] = False
            report["counterexamples"].append({"law": name, "payload": payload})

    seen_closures = set()
    for entry in mono.entries:
        if entry.ids in skip:
            continue
        closure = filt_closure(u, entry.ids)
        simples = sim(u, closure)
        if frozenset(entry.ids) != simples:
            law("sim_after_filt", False, {"monobrick": list(entry.ids),
                                          "sim": sorted(simples)})
        seen_closures.add(closure.ids)
    report["laws"].setdefault("sim_after_filt", True)
    # all_left_schur audited these closures with these generators, and only the
    # monobricks that passed are representable
    report["laws"]["summand_audit"] = True

    for entry in schur.entries:
        e = Subcategory(u, entry.ids)
        closure = filt_closure(u, sim(u, e))
        if closure.ids != e.ids:
            law("filt_after_sim", False, {"schur": list(entry.ids),
                                          "closure": list(closure.ids)})
    report["laws"].setdefault("filt_after_sim", True)

    law("closure_count", len(seen_closures) == len(mono.entries) - len(skip),
        {"closures": len(seen_closures), "monobricks": len(mono.entries),
         "non_representable": len(skip)})
    n_semi = sum(1 for entry in mono.entries if entry.flags["semibrick"])
    n_cc = sum(1 for entry in mono.entries if entry.flags["cofinally_closed"])
    n_wide = sum(1 for entry in schur.entries if entry.flags["wide"])
    n_torf = sum(1 for entry in schur.entries if entry.flags["torsion_free"])
    law("wide_matches_semibrick", n_wide == n_semi, {"wide": n_wide, "semibrick": n_semi})
    law("torf_matches_cc", n_torf == n_cc, {"torf": n_torf, "cc": n_cc})
    report["counts"] = {
        "monobricks": len(mono.entries),
        "representable_monobricks": len(mono.entries) - len(skip),
        "left_schur": len(schur.entries),
        "semibricks": n_semi,
        "cc_monobricks": n_cc,
        "wide": n_wide,
        "torsion_free": n_torf,
    }
    return report
