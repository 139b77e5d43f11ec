"""Idempotent recollements (mod A/AeA, mod A, mod eAe) and the gluing layer.

Right-module convention throughout, matching the triangular matrix picture:
for an idempotent e the quotient functor is j^* T = Te (a module over the
corner C = eAe), the subcategory side is B = A/AeA, and

    i_* X  = X inflated along A ->> B          i^! T = {t : t.(AeA) = 0}
    i^* T  = T / T.(AeA)                       j_! N = N (x)_C eA
    j_* N  = Hom_C(Ae, N)                      j_!* N = Im(j_! N -> j_* N)

Every functor is a short pipeline of four kinds of step (after Psaroudakis,
Homological theory of recollements of abelian categories, J. Algebra 2014):
restriction of scalars, a submodule, a quotient, and a "slot" module built
over the vertex idempotents only.  Concretely:

  * i_* X and j^* T restrict scalars along A ->> B and eAe -> A.  An A-module
    killed by AeA is read over B by letting each arrow of B act as its
    representative in A.
  * i^! T is the submodule of the t with t.y = 0 for every basis element y
    ending in e, read over B.  This is t.(AeA) = 0: AeA is spanned by the
    products u y u' with such y, so t.AeA = 0 iff t.y = 0 for all of them.
  * i^* T is the quotient by T.(AeA) = T.eA, whose rows are the images t.x
    of the basis elements x starting in e, read over B.
  * j_! N is the quotient of W_!(N) = N (x) eA (over the vertex idempotents,
    acted on by right multiplication) by the balance rows n.c (x) x - n (x) cx.
  * j_* N is the submodule of W_*(N) = Hom(Ae, N) (over the vertex
    idempotents, acted on through left multiplication) of the C-linear maps.
  * j_!* N is the image of theta inside j_* N.

A morphism is carried through the same steps: restriction re-indexes its
vertex matrices, a slot module lifts them block-diagonally, a submodule
re-expresses them in its rows, and a quotient applies them to the class
representatives and projects.

The canonical map j_! -> j_* is the adjunction image of the identity,
realized explicitly by theta(n (x) x)(y) = n.(xy); it and the unit
T -> j_* j^* T both land in j_* through their matrices into Hom(Ae, N).  The
build self-checks the recollement axioms on the universes, so a mis-wired
convention fails loudly rather than silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fields as ff
from .algebras import (
    Algebra,
    IdempotentSpec,
    corner_algebra,
    quotient_by_idempotent_ideal,
)
from .errors import BudgetExceeded, InputError, VerificationFailure
from .modules import (
    IndecUniverse,
    Module,
    Morphism,
    ShortExactSequence,
    Thresholds,
    build_universe,
    decompose,
    hom_basis,
    is_injective,
    is_isomorphic_to_indecomposable,
    is_split,
    is_surjective,
    memo,
    regular_module,
    submodule_from_rows,
    submodule_sequences,
    quotient_by_rows,
)
from .subcats import (
    BrickSet,
    Subcategory,
    all_bricks,
    brick_set,
    is_cofinally_closed,
    is_left_schur,
    is_monobrick,
    is_semibrick,
    is_torsion_free,
    is_wide,
)

# each functor's (source, target) category: "a" is mod A, "b" mod A/AeA, "c" mod eAe
FUNCTOR_SIDES = {
    "i_star": ("b", "a"), "i_upper": ("a", "b"), "i_shriek": ("a", "b"),
    "j_lower_shriek": ("c", "a"), "j_upper": ("a", "c"), "j_star": ("c", "a"),
    "j_intermediate": ("c", "a"),
}
FUNCTOR_TAGS = tuple(FUNCTOR_SIDES)

# the laws and brick kinds whose gluing needs i^! exact
NEEDS_EXACT = ("schur", "wide", "cc-monobrick")


@dataclass
class FunctorImage:
    """A functor value and the steps that built it; the steps also map morphisms.

    Each step is (kind, payload):
      ("restrict", vertex_of)      restriction of scalars, vertex v read at vertex_of[v]
      ("slots", blocks)            the direct sum of N_w over the blocks (x, w) at each vertex
      ("sub", rows)                the submodule spanned by the rows
      ("quot", (rep_rows, proj))   the quotient: class representatives and the projection
    """

    module: Module
    data: tuple


@dataclass
class ExactnessCertificate:
    exact: bool
    structural: bool
    direct: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        return {
            "exact": self.exact,
            "structural_projectivity_test": self.structural,
            "direct_sequence_test": self.direct,
            "witness": self.witness,
        }


def _restrict(m: Module, alg: Algebra, vertex_of, elements) -> tuple[Module, tuple]:
    """m read over alg: vertex v is m at vertex_of[v] (zero where None), arrow k acts as elements[k]."""
    dims = tuple(0 if u is None else m.dims[u] for u in vertex_of)
    act = {}
    for k in alg.arrows:
        s, t = vertex_of[alg.src[k]], vertex_of[alg.tgt[k]]
        act[k] = (ff.zeros(dims[alg.src[k]], dims[alg.tgt[k]]) if s is None or t is None
                  else m.act_of_vector(elements[k], s, t))
    return Module(alg, dims, act), ("restrict", vertex_of)


def _sub(m: Module, rows) -> tuple[Module, tuple]:
    sub, incl = submodule_from_rows(m, list(rows))
    return sub, ("sub", incl.mats)


def _quot(m: Module, rows) -> tuple[Module, tuple]:
    parts = quotient_by_rows(m, list(rows))
    return parts.module, ("quot", (parts.rep_rows, parts.projection.mats))


def _coords(v: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    coords = ff.coordinates(v, rows, p)
    if coords is None:
        raise InputError("a map meant to land in a submodule leaves it")
    return coords


def _block_diag(mats: list[np.ndarray]) -> np.ndarray:
    out = ff.zeros(sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats))
    i = j = 0
    for m in mats:
        out[i:i + m.shape[0], j:j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    return out


def _transport(src_steps: tuple, dst_steps: tuple, mats, p: int) -> list[np.ndarray]:
    """Carry a morphism's vertex matrices through the steps of its two images."""
    for (kind, s), (_, d) in zip(src_steps, dst_steps):
        if kind == "restrict":
            mats = [ff.zeros(0, 0) if u is None else mats[u] for u in s]
        elif kind == "slots":
            mats = [_block_diag([mats[w] for _, w in blocks]) for blocks in s]
        elif kind == "sub":
            mats = [_coords(ff.mul(rs, f, p), rd, p) for rs, f, rd in zip(s, mats, d)]
        else:
            mats = [ff.mul(ff.mul(rep, f, p), proj, p) for rep, f, proj in zip(s[0], mats, d[1])]
    return mats


def _law(report: dict, name: str, ok, payload=None) -> None:
    """Record one instance of a law; the law holds while all its instances do."""
    report["laws"][name] = report["laws"].get(name, True) and bool(ok)
    if not ok:
        report["ok"] = False
        report["counterexamples"].append({"law": name, "payload": payload})


class Recollement:
    """The three categories, the seven functors, and their memoised images."""

    def __init__(self, a: Algebra, e: IdempotentSpec, bound: int,
                 thresholds: Thresholds, self_check: bool = True,
                 universe: IndecUniverse | None = None):
        if not e.algebra.same_as(a):
            raise InputError("idempotent belongs to a different algebra")
        if universe is not None and not (universe.algebra.same_as(a) and universe.bound == bound
                                         and universe.thresholds == thresholds):
            raise InputError("the given universe is not the A-universe of this "
                             "algebra, bound and thresholds")
        self.a = a
        self.e = e
        self.bound = bound
        self.thresholds = thresholds
        self.e_set = set(e.vertices)
        self.b_alg, self.b_data = quotient_by_idempotent_ideal(a, e)
        self.c_alg, self.c_data = corner_algebra(a, e)
        self.a_to_b = {old: new for new, old in enumerate(self.b_data.vertex_map)}
        self.a_to_c = {old: new for new, old in enumerate(self.c_data.vertex_map)}
        self.u_a = build_universe(a, bound, thresholds=thresholds) if universe is None else universe
        self.u_b = build_universe(self.b_alg, bound, thresholds=thresholds)
        self.u_c = build_universe(self.c_alg, bound, thresholds=thresholds)
        self.cache: dict = {}  # see modules.memo
        self._b_in_a = tuple(self.a_to_b.get(v) for v in range(a.nv))  # None inside e
        self._c_index = list(self.c_data.index_map)
        self._b_reps = ff.eye(a.dim)[list(self.b_data.rep)]
        self._c_reps = ff.eye(a.dim)[self._c_index]

        def blocks(at, via):
            return [[(x, self.a_to_c[via[x]]) for x in range(a.dim)
                     if via[x] in self.e_set and at[x] == v] for v in range(a.nv)]

        # blocks (x, w) of N (x) eA (x in eA, at its target) and of Hom(Ae, N)
        # (x in Ae, at its source); each carries N_w for the corner vertex w
        self._blocks = {True: blocks(a.tgt, a.src), False: blocks(a.src, a.tgt)}
        if self_check:
            self._light_self_check()

    # -- plumbing ----------------------------------------------------------

    def universe_of(self, tag: str) -> IndecUniverse:
        return getattr(self, "u_" + FUNCTOR_SIDES[tag][0])

    def target_universe(self, tag: str) -> IndecUniverse:
        return getattr(self, "u_" + FUNCTOR_SIDES[tag][1])

    def _expect_algebra(self, tag: str, m: Module) -> None:
        if not m.algebra.same_as(self.universe_of(tag).algebra):
            raise InputError(f"{tag}: module lives in the wrong category")

    def apply(self, tag: str, m: Module) -> Module:
        return self.apply_with_data(tag, m).module

    def apply_with_data(self, tag: str, m: Module) -> FunctorImage:
        """The image with its steps; images of universe members are kept."""
        self._expect_algebra(tag, m)
        for uid, rep in enumerate(self.universe_of(tag).modules):
            if rep is m:
                return self._member_image(tag, uid)
        return self._build(tag, m)

    @memo
    def _member_image(self, tag: str, uid: int) -> FunctorImage:
        return self._build(tag, self.universe_of(tag).module(uid))

    @memo
    def image_ids(self, tag: str, uid: int) -> tuple[int, ...]:
        module = self.apply(tag, self.universe_of(tag).module(uid))
        return decompose(module, self.target_universe(tag))

    # -- the seven functors --------------------------------------------------

    def _build(self, tag: str, m: Module) -> FunctorImage:
        p = m.p
        if tag == "i_star":
            stages = [_restrict(m, self.a, self._b_in_a, self.b_data.projection)]
        elif tag == "j_upper":
            stages = [_restrict(m, self.c_alg, self.c_data.vertex_map, self._c_reps)]
        elif tag == "i_shriek":
            stages = [_sub(m, [ff.row_kernel(h, p) for h in self._into_hom_ae(m)])]
        elif tag == "i_upper":
            stages = [_quot(m, self._e_image(m))]
        elif tag == "j_lower_shriek":
            stages = [self._slot_module(m, True)]
            stages.append(_quot(stages[0][0], self._relations(m, True)))
        elif tag == "j_star":
            stages = [self._slot_module(m, False)]
            stages.append(_sub(stages[0][0], [ff.row_kernel(r.T, p)
                                              for r in self._relations(m, False)]))
        else:
            theta, _, js = self._theta(m)
            sub, step = _sub(js.module, theta.mats)
            return FunctorImage(sub, js.data + (step,))
        if tag in ("i_shriek", "i_upper"):  # killed by AeA: read over B
            stages.append(_restrict(stages[0][0], self.b_alg, self.b_data.vertex_map,
                                    self._b_reps))
        return FunctorImage(stages[-1][0], tuple(step for _, step in stages))

    def _e_image(self, t: Module) -> list[np.ndarray]:
        """Rows spanning T.eA: the images t.x of the basis elements x from e to each vertex."""
        return [np.concatenate([ff.zeros(0, d)] + [t.act_block(x) for x, _ in bl])
                for d, bl in zip(t.dims, self._blocks[True])]

    def _into_hom_ae(self, t: Module) -> list[np.ndarray]:
        """The map T -> Hom(Ae, Te), t |-> (y |-> t.y), one block per y at each vertex."""
        return [np.concatenate([ff.zeros(d, 0)] + [t.act_block(y) for y, _ in bl], axis=1)
                for d, bl in zip(t.dims, self._blocks[False])]

    def _layout(self, n: Module, shriek: bool) -> tuple[dict[int, int], tuple[int, ...]]:
        """Offset of each block inside its vertex space, and the dimension vector."""
        start, dims = {}, []
        for bl in self._blocks[shriek]:
            k = 0
            for x, w in bl:
                start[x] = k
                k += n.dims[w]
            dims.append(k)
        return start, tuple(dims)

    def _slot_module(self, n: Module, shriek: bool) -> tuple[Module, tuple]:
        """N (x) eA acted on by right multiplication (shriek), or Hom(Ae, N) acted
        on through left multiplication, both over the vertex idempotents only."""
        a = self.a
        start, dims = self._layout(n, shriek)
        act = {}
        for q in a.arrows:
            s, t = a.src[q], a.tgt[q]
            big = ff.zeros(dims[s], dims[t])
            for x, w in self._blocks[shriek][s if shriek else t]:
                prod = a.mult[x, q] if shriek else a.mult[q, x]
                for y in np.nonzero(prod)[0]:
                    i, j = (start[x], start[int(y)]) if shriek else (start[int(y)], start[x])
                    big[i:i + n.dims[w], j:j + n.dims[w]] = prod[y] * ff.eye(n.dims[w])
            act[q] = big
        return Module(a, dims, act), ("slots", self._blocks[shriek])

    def _relations(self, n: Module, shriek: bool) -> list[np.ndarray]:
        """Per vertex, one block row for each arrow c of C and block x with cx defined
        (shriek) or xc defined.

        Shriek: the rows n.c (x) x - n (x) cx span the kernel of N (x) eA ->> N (x)_C eA.
        Otherwise: the right kernel is the C-linear maps, phi(x).c = phi(xc).
        The arrows of C generate its radical, so the balance rows of the arrows
        span those of every basis element: for c = c'c'', n.c (x) x - n (x) cx is
        the row of c'' at n.c' plus the rows of c' at the blocks of c''x.
        """
        a, p = self.a, n.p
        start, dims = self._layout(n, shriek)
        rels = [[ff.zeros(0, d)] for d in dims]
        for gamma in self.c_alg.arrows:
            g = self.c_data.index_map[gamma]
            gm = n.act[gamma] if shriek else n.act[gamma].T
            for v, bl in enumerate(self._blocks[shriek]):
                for x, _ in bl:
                    left, right = (g, x) if shriek else (x, g)
                    if a.tgt[left] != a.src[right]:
                        continue
                    row = ff.zeros(gm.shape[0], dims[v])
                    row[:, start[x]:start[x] + gm.shape[1]] = gm
                    prod = a.mult[left, right]
                    for y in np.nonzero(prod)[0]:
                        k = start[int(y)]
                        row[:, k:k + gm.shape[0]] -= prod[y] * ff.eye(gm.shape[0])
                    rels[v].append(row % p)
        return [np.concatenate(r) for r in rels]

    def _theta(self, n: Module) -> tuple[Morphism, FunctorImage, FunctorImage]:
        """Canonical map j_! N -> j_* N: theta(n (x) x)(y) = n.(xy)."""
        a, p = self.a, n.p
        jl = self.apply_with_data("j_lower_shriek", n)
        rep_rows = jl.data[1][1][0]
        (sl, dl), (ss, ds) = self._layout(n, True), self._layout(n, False)
        mats = []
        for v in range(a.nv):
            big = ff.zeros(dl[v], ds[v])
            for x, w in self._blocks[True][v]:
                for y, w2 in self._blocks[False][v]:
                    big[sl[x]:sl[x] + n.dims[w], ss[y]:ss[y] + n.dims[w2]] = \
                        n.act_of_vector(a.mult[x, y][self._c_index], w, w2)
            mats.append(ff.mul(rep_rows[v], big, p))
        theta, js = self._into_j_star(jl.module, n, mats)
        return theta, jl, js

    def _into_j_star(self, src: Module, n: Module, mats) -> tuple[Morphism, FunctorImage]:
        """The map src -> j_* N given at each vertex by its matrix into Hom(Ae, N)."""
        js = self.apply_with_data("j_star", n)
        rows = js.data[1][1]
        return Morphism(src, js.module, [_coords(m, r, n.p) for m, r in zip(mats, rows)]), js

    # -- morphism transport ---------------------------------------------------

    def apply_to_morphism(self, tag: str, f: Morphism) -> Morphism:
        self._expect_algebra(tag, f.src)
        src_img = self.apply_with_data(tag, f.src)
        dst_img = self.apply_with_data(tag, f.dst)
        mats = _transport(src_img.data, dst_img.data, f.mats, f.p)
        return Morphism(src_img.module, dst_img.module, mats)

    # -- canonical maps --------------------------------------------------------

    def counit_into(self, t: Module) -> Morphism:
        """The canonical inclusion i_* i^! T -> T."""
        img = self.apply_with_data("i_shriek", t)
        return Morphism(self._build("i_star", img.module).module, t, img.data[0][1])

    def unit_out_of(self, t: Module) -> Morphism:
        """The canonical map T -> j_* j^* T."""
        return self._into_j_star(t, self.apply("j_upper", t), self._into_hom_ae(t))[0]

    # -- exactness of i^! -------------------------------------------------------

    def is_i_shriek_exact(self) -> tuple[bool, ExactnessCertificate]:
        cert = self._compute_exactness()
        return cert.exact, cert

    def _exactness_sequences(self):
        # 0 -> AeA -> A_A -> A/AeA -> 0, a projective presentation of A/AeA: the
        # vertex-w rows of AeA are its basis rows read at the basis elements
        # ending at w, in the row order of A_A (summands e_v A by v)
        a = self.a
        a_reg = regular_module(a)
        rows = [self.b_data.ideal_rows[:, sorted((i for i in range(a.dim) if a.tgt[i] == w),
                                                 key=lambda i: a.src[i])]
                for w in range(a.nv)]
        _, incl = submodule_from_rows(a_reg, rows)
        yield ("projective presentation of A/AeA",
               ShortExactSequence(incl, quotient_by_rows(a_reg, list(incl.mats)).projection))
        for uid in self.u_a.ids:
            for _, incl, parts in submodule_sequences(self.u_a, uid):
                yield (f"submodule sequence in universe member {uid}",
                       ShortExactSequence(incl, parts.projection))

    @memo
    def _compute_exactness(self) -> ExactnessCertificate:
        # the first sequence is 0 -> AeA -> A -> A/AeA -> 0, which splits iff
        # A/AeA is projective: that is the structural verdict
        sequences = self._exactness_sequences()
        first = next(sequences)
        structural = is_split(first[1])

        direct = True
        witness = None
        for name, ses in itertools.chain([first], sequences):
            ik = self.apply_to_morphism("i_shriek", ses.mono)
            pk = self.apply_to_morphism("i_shriek", ses.epi)
            left_ok = is_injective(ik)
            middle_ok = all(
                np.array_equal(ff.row_space_basis(ik.mats[v], ik.p),
                               ff.row_kernel(pk.mats[v], pk.p))
                for v in range(self.b_alg.nv)
            )
            right_ok = is_surjective(pk)
            if not (left_ok and middle_ok and right_ok):
                direct = False
                witness = name
                break
        if structural != direct:
            raise VerificationFailure(
                "i^! exactness verdicts disagree: structural "
                f"{structural} vs direct {direct} (witness: {witness}); "
                "this flags an implementation or convention bug"
            )
        return ExactnessCertificate(structural and direct, structural, direct, witness)

    # -- light build-time self check -------------------------------------------

    def _light_self_check(self) -> None:
        for uid in self.u_b.ids:
            x = self.u_b.module(uid)
            as_a = self._build("i_star", x).module
            if self.apply("j_upper", as_a).total_dim != 0:
                raise VerificationFailure(
                    f"j^* i_* is nonzero on mod-B universe member {uid}; "
                    "recollement convention mis-wired"
                )
            back = self._build("i_shriek", as_a).module
            if not is_isomorphic_to_indecomposable(x, back):
                raise VerificationFailure(
                    f"i^! i_* is not the identity on mod-B universe member {uid}"
                )

    # -- axiom report (adjunctions, units, Im i_* = Ker j^*) --------------------

    def axiom_report(self) -> dict:
        report: dict = {"ok": True, "laws": {}, "counterexamples": []}
        law = partial(_law, report)
        for uid in self.u_a.ids:
            m = self.u_a.module(uid)
            i_up = self.apply("i_upper", m)
            i_sh = self.apply("i_shriek", m)
            for xid in self.u_b.ids:
                x = self.u_b.module(xid)
                xa = self.apply("i_star", x)
                law("adjunction_i_upper",
                    len(hom_basis(i_up, x)) == len(hom_basis(m, xa)),
                    {"member": uid, "edge": xid})
                law("adjunction_i_shriek",
                    len(hom_basis(xa, m)) == len(hom_basis(x, i_sh)),
                    {"member": uid, "edge": xid})
            j_up = self.apply("j_upper", m)
            for nid in self.u_c.ids:
                n = self.u_c.module(nid)
                jl = self.apply("j_lower_shriek", n)
                js = self.apply("j_star", n)
                law("adjunction_j_lower",
                    len(hom_basis(jl, m)) == len(hom_basis(n, j_up)),
                    {"member": uid, "edge": nid})
                law("adjunction_j_star",
                    len(hom_basis(j_up, n)) == len(hom_basis(m, js)),
                    {"member": uid, "edge": nid})
            # Im i_* = Ker j^* on the universe: M is killed by j^* iff the
            # canonical inclusion i_* i^! M -> M is all of M
            kernel_side = j_up.total_dim == 0
            image_side = self.counit_into(m).src.total_dim == m.total_dim
            law("im_i_star_equals_ker_j_upper", kernel_side == image_side, {"member": uid})
        for xid in self.u_b.ids:
            x = self.u_b.module(xid)
            xa = self.apply("i_star", x)
            law("i_upper_i_star_id",
                is_isomorphic_to_indecomposable(x, self.apply("i_upper", xa)), {"edge": xid})
            law("i_shriek_i_star_id",
                is_isomorphic_to_indecomposable(x, self.apply("i_shriek", xa)), {"edge": xid})
        for nid in self.u_c.ids:
            n = self.u_c.module(nid)
            jl = self.apply("j_lower_shriek", n)
            js = self.apply("j_star", n)
            law("j_upper_j_lower_id",
                is_isomorphic_to_indecomposable(n, self.apply("j_upper", jl)), {"edge": nid})
            law("j_upper_j_star_id",
                is_isomorphic_to_indecomposable(n, self.apply("j_upper", js)), {"edge": nid})
            law("i_upper_j_lower_zero",
                self.apply("i_upper", jl).total_dim == 0, {"edge": nid})
            law("i_shriek_j_star_zero",
                self.apply("i_shriek", js).total_dim == 0, {"edge": nid})
        return report

    def exactness_consequences_report(self) -> dict:
        """Objectwise laws that hold when i^! is exact."""
        exact, cert = self.is_i_shriek_exact()
        report: dict = {"ok": True, "hypothesis_exact": exact,
                        "certificate": cert.as_dict(), "laws": {}, "counterexamples": []}
        if not exact:
            report["skipped"] = True
            return report
        law = partial(_law, report)
        for nid in self.u_c.ids:
            n = self.u_c.module(nid)
            js = self.apply("j_star", n)
            law("i_upper_j_star_zero", self.apply("i_upper", js).total_dim == 0,
                {"edge": nid})
            # End(j_* N) = End(N) is local, so j_* N is indecomposable
            law("j_intermediate_is_j_star",
                is_isomorphic_to_indecomposable(js, self.apply("j_intermediate", n)),
                {"edge": nid})
        for uid in self.u_a.ids:
            m = self.u_a.module(uid)
            ses = ShortExactSequence(self.counit_into(m), self.unit_out_of(m))
            law("canonical_sequence_exact", ses.validate(), {"member": uid})
        return report

    def simple_gluing_report(self) -> dict:
        """Every simple A-module is i_* of a simple or j_!* of a simple."""
        report: dict = {"ok": True, "counterexamples": []}
        simples_b = [self.apply("i_star", Module.simple(self.b_alg, v))
                     for v in range(self.b_alg.nv)]
        simples_c = [self.apply("j_intermediate", Module.simple(self.c_alg, v))
                     for v in range(self.c_alg.nv)]
        for v in range(self.a.nv):
            s = Module.simple(self.a, v)
            hit = any(is_isomorphic_to_indecomposable(s, t) for t in simples_b + simples_c)
            if not hit:
                report["ok"] = False
                report["counterexamples"].append({"simple_at_vertex": self.a.vertex_labels[v]})
        return report


def build_recollement(a: Algebra, e: IdempotentSpec, *, bound: int,
                      thresholds: Thresholds | None = None,
                      self_check: bool = True,
                      universe: IndecUniverse | None = None) -> Recollement:
    """The recollement of a at e, on the given A-universe if one is passed;
    it must be built for a, bound and thresholds (InputError otherwise)."""
    from .modules import DEFAULT_THRESHOLDS

    return Recollement(a, e, bound, thresholds or DEFAULT_THRESHOLDS, self_check, universe)


# ---------------------------------------------------------------------------
# gluing and restriction


def glue_subcategory(r: Recollement, e_y: Subcategory, e_z: Subcategory, law: str,
                     *, allow_unverified: bool = False) -> Subcategory:
    """{X : j^* X in E_Z and i^! X in E_Y} over the universe of mod A.

    The comprehension glues left Schur ("schur") and wide subcategories when
    i^! is exact, and torsion-free classes ("torf") always.
    """
    if law not in ("schur", "wide", "torf"):
        raise InputError(f"unknown law {law!r}")
    _require_exact(r, law, allow_unverified)
    y_ids, z_ids = set(e_y.ids), set(e_z.ids)
    return Subcategory(r.u_a, tuple(
        uid for uid in r.u_a.ids
        if set(r.image_ids("j_upper", uid)) <= z_ids and set(r.image_ids("i_shriek", uid)) <= y_ids
    ))


def _require_exact(r: Recollement, law: str, allow_unverified: bool) -> None:
    if law in NEEDS_EXACT and not allow_unverified and not r.is_i_shriek_exact()[0]:
        raise InputError(
            "gluing requires the i^! exactness certificate; rerun with the "
            "unverified-hypothesis override to experiment"
        )


def _map_brickset(r: Recollement, tag: str, s: BrickSet) -> list[int]:
    out = []
    for uid in s.ids:
        ids = r.image_ids(tag, uid)
        if len(ids) != 1:
            raise VerificationFailure(
                f"{tag} of brick {uid} is not indecomposable: {list(ids)}"
            )
        out.append(ids[0])
    return out


def glue_bricks(r: Recollement, m_y: BrickSet, m_z: BrickSet, kind: str = "monobrick",
                *, allow_unverified: bool = False) -> BrickSet:
    """i_*(M_Y) ⊔ j_!*(M_Z) for monobricks or semibricks; cofinally closed
    monobricks ("cc-monobrick") glue through j_* and need i^! exact."""
    if kind not in ("monobrick", "semibrick", "cc-monobrick"):
        raise InputError(f"unknown kind {kind!r}")
    name = kind.removeprefix("cc-")
    test = is_monobrick if name == "monobrick" else is_semibrick
    if not test(m_y) or not test(m_z):
        raise InputError(f"glue_{name} requires {name} inputs")
    cc = kind == "cc-monobrick"
    if cc and (not is_cofinally_closed(m_y, all_bricks(r.u_b))
               or not is_cofinally_closed(m_z, all_bricks(r.u_c))):
        raise InputError("cc variant requires cofinally closed inputs")
    _require_exact(r, kind, allow_unverified)
    z_tag = "j_star" if cc else "j_intermediate"
    ids = _map_brickset(r, "i_star", m_y) + _map_brickset(r, z_tag, m_z)
    out = brick_set(r.u_a, ids)
    if not test(out):
        raise VerificationFailure(
            f"glued set {list(out.ids)} is not a {name} (inputs "
            f"{list(m_y.ids)} / {list(m_z.ids)})"
        )
    if cc and not is_cofinally_closed(out, all_bricks(r.u_a)):
        raise VerificationFailure(
            f"glued monobrick {list(out.ids)} is not cofinally closed"
        )
    return out


def restrict(r: Recollement, e_x: Subcategory) -> tuple[Subcategory, Subcategory]:
    """(decomposed i^! image, decomposed j^* image) of a subcategory of mod A."""
    y_ids: set[int] = set()
    z_ids: set[int] = set()
    for uid in e_x.ids:
        y_ids.update(r.image_ids("i_shriek", uid))
        z_ids.update(r.image_ids("j_upper", uid))
    return Subcategory(r.u_b, tuple(sorted(y_ids))), Subcategory(r.u_c, tuple(sorted(z_ids)))


# ---------------------------------------------------------------------------
# theorem sweeps


LAW_ALIASES = {
    "3.2": "schur", "3.3": "wide", "3.4": "torf", "3.5": "cc-monobrick",
    "schur": "schur", "wide": "wide", "torf": "torf",
    "cc-monobrick": "cc-monobrick",
}


def verify_theorem(r: Recollement, which: str) -> dict:
    """Exhaustive biconditional sweep of one gluing law over all edge pairs.

    For the subcategory laws: over every pair of edge id-subsets, the glued
    comprehension passes the predicate iff both edges do.  For the monobrick
    law: over every pair of edge monobricks, the glued set is a monobrick and
    is cofinally closed iff both inputs are.
    """
    law = LAW_ALIASES.get(which)
    if law is None:
        raise InputError(f"unknown law {which!r}; use 3.2/3.3/3.4/3.5 or an alias")
    exact, cert = r.is_i_shriek_exact()
    report: dict = {
        "law": law, "ok": True, "hypothesis_exact": exact,
        "certificate": cert.as_dict(),
        "pairs_checked": 0, "counterexamples": [],
    }
    if law in NEEDS_EXACT and not exact:
        report["skipped"] = True
        report["reason"] = "i^! is not exact; the law's hypothesis fails here"
        return report

    def fail(payload):
        report["ok"] = False
        report["counterexamples"].append(payload)

    if law in ("schur", "wide", "torf"):
        pred = {"schur": is_left_schur, "wide": is_wide, "torf": is_torsion_free}[law]
        nb, nc = len(r.u_b), len(r.u_c)
        cap = r.thresholds.subset_cap
        if 2 ** (nb + nc) > cap:
            raise BudgetExceeded("edge subset sweep too large", needed=2 ** (nb + nc), limit=cap)
        z_edges = []  # each z-edge and its verdict, judged once for all y-edges
        for z_bits in range(2 ** nc):
            e_z = Subcategory(r.u_c, tuple(i for i in range(nc) if z_bits >> i & 1))
            z_edges.append((e_z, pred(r.u_c, e_z)))
        for y_bits in range(2 ** nb):
            y_ids = tuple(i for i in range(nb) if y_bits >> i & 1)
            e_y = Subcategory(r.u_b, y_ids)
            y_ok = pred(r.u_b, e_y)
            for e_z, z_ok in z_edges:
                # the hypothesis is settled above
                e_x = glue_subcategory(r, e_y, e_z, law, allow_unverified=True)
                x_ok = pred(r.u_a, e_x)
                report["pairs_checked"] += 1
                if x_ok != (y_ok and z_ok):
                    fail({"e_y": list(y_ids), "e_z": list(e_z.ids),
                          "e_x": list(e_x.ids), "edges_pass": y_ok and z_ok,
                          "glued_passes": x_ok})
                elif x_ok:
                    back_y, back_z = restrict(r, e_x)
                    if back_y.ids != e_y.ids or back_z.ids != e_z.ids:
                        fail({"e_y": list(y_ids), "e_z": list(e_z.ids),
                              "restriction_mismatch": [list(back_y.ids), list(back_z.ids)]})
        return report

    # cc-monobrick law
    from .census import all_monobricks

    mono_b = all_monobricks(r.u_b)
    mono_c = all_monobricks(r.u_c)
    ambient = all_bricks(r.u_a)
    for eb in mono_b.entries:
        m_y = brick_set(r.u_b, eb.ids, validate=False)
        for ec in mono_c.entries:
            m_z = brick_set(r.u_c, ec.ids, validate=False)
            glued = glue_bricks(r, m_y, m_z)
            report["pairs_checked"] += 1
            glued_cc = is_cofinally_closed(glued, ambient)
            edges_cc = eb.flags["cofinally_closed"] and ec.flags["cofinally_closed"]
            if glued_cc != edges_cc:
                fail({"m_y": list(eb.ids), "m_z": list(ec.ids),
                      "glued": list(glued.ids), "edges_cc": edges_cc,
                      "glued_cc": glued_cc})
    return report
