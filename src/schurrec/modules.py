"""Right modules over a structure-constant algebra, and their homological calculus.

A module is a representation of the bound quiver: a dimension vector plus
one action matrix per arrow, act[a] for a: s -> t.  Every other basis element
acts through its expression in arrow words; act_block derives that action
once per module, on first use.  Module elements are ROW vectors; for x at
vertex s and a basis element b: s -> t, the action is x @ act_block(b).  A
morphism is one matrix per vertex, and f(x) = x @ mats[v]; the intertwining
law, on the arrows, reads  act_M[a] @ F_t == F_s @ act_N[a].

Ext^1(z, x) is computed on the arrows: a cocycle is one matrix
phi_a: z_{s(a)} x x_{t(a)} per arrow (flattened row-major, concatenated in
arrow order) whose block module z ⊕ x, with a acting as
[[z_a, phi_a], [0, x_a]], satisfies the relations; that block module is the
middle term of 0 -> x -> E -> z -> 0.  The universe builder and the
extension-closure tests of the subcategory layer share this construction.

Everything here is exact arithmetic over F_p and deterministic: scans run in
a fixed order.  A universe built by extensions takes as representative of
each iso class the first middle term of 0 -> S_v -> E -> X -> 0 it meets,
walking vertices v, then multisets X of smaller members in member order, then
cocycle spans in RREF order; members of one total dimension are then sorted
by dimension vector, stably.  Smaller members never depend on larger ones,
so a universe cut down to a smaller bound is the one built at that bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fields as ff
from .algebras import Algebra
from .errors import BudgetExceeded, InputError, UniverseExhausted


@dataclass(frozen=True)
class Thresholds:
    """Search budgets; exceeding any of them raises BudgetExceeded."""

    scan_limit: int = 2**20          # elements of a Hom/End space scanned exhaustively,
                                     # and extension candidates per quotient X
    submodule_vectors: int = 2**16   # vectors of the vertex spaces per module, sum of p^d_v;
                                     # a count of vectors, not of the cyclic generators closed
    submodule_count: int = 4096      # distinct submodules kept per module
    enumeration_states: int = 2**22  # extension candidates tried per universe build, and
                                     # monobricks or torsion-free classes found by a census
    subset_cap: int = 2**12          # subcategory candidates in oracle enumerations


DEFAULT_THRESHOLDS = Thresholds()


class Module:
    """Finite-dimensional right module over an Algebra, stored by its arrow matrices."""

    __slots__ = ("algebra", "dims", "act", "_derived")

    def __init__(
        self,
        algebra: Algebra,
        dims: tuple[int, ...],
        act: dict[int, np.ndarray],
        *,
        check: bool = False,
    ):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.nv or any(d < 0 for d in self.dims):
            raise InputError("dimension vector does not match the algebra")
        if act.keys() != set(algebra.arrows):
            raise InputError("the action needs one matrix per arrow and no other")
        for a in algebra.arrows:
            if act[a].shape != (self.dims[algebra.src[a]], self.dims[algebra.tgt[a]]):
                raise InputError(f"action block for {algebra.labels[a]} has wrong shape")
        self.act = act
        self._derived: dict[int, np.ndarray] | None = None
        if check and not satisfies_relations(algebra, self.dims, act):
            raise InputError("arrow matrices violate the algebra relations")

    @classmethod
    def zero(cls, algebra: Algebra) -> "Module":
        return cls(algebra, (0,) * algebra.nv, {a: ff.zeros(0, 0) for a in algebra.arrows})

    @classmethod
    def simple(cls, algebra: Algebra, vertex: int) -> "Module":
        dims = tuple(1 if v == vertex else 0 for v in range(algebra.nv))
        return cls(algebra, dims, {a: ff.zeros(dims[algebra.src[a]], dims[algebra.tgt[a]])
                                   for a in algebra.arrows})

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def act_block(self, i: int) -> np.ndarray:
        """Action of basis element i: the identity on a vertex, the stored matrix
        on an arrow, and on any other element the block derived from the arrows
        on first use."""
        if i < self.algebra.nv:
            return ff.eye(self.dims[i])
        if i in self.act:
            return self.act[i]
        if self._derived is None:
            self._derived = materialize_action(self.algebra, self.dims, self.act)
        return self._derived[i]

    def act_of_vector(self, vec: np.ndarray, s: int, t: int) -> np.ndarray:
        """Action of an algebra element (coefficient vector) on the (s, t) block."""
        out = ff.zeros(self.dims[s], self.dims[t])
        for k in np.nonzero(vec)[0]:
            k = int(k)
            if self.algebra.src[k] == s and self.algebra.tgt[k] == t:
                out = (out + vec[k] * self.act_block(k)) % self.p
        return out

    def __repr__(self) -> str:
        return f"Module(dims={list(self.dims)})"


def _word_matrices(algebra: Algebra, arrow_mats: dict[int, np.ndarray]):
    """Memoized matrix of an arrow word (left to right) on the given arrow matrices."""
    p = algebra.p
    memo: dict[tuple[int, ...], np.ndarray] = {}

    def wmat(w: tuple[int, ...]) -> np.ndarray:
        if w not in memo:
            if len(w) == 1:
                memo[w] = arrow_mats[w[0]] % p
            else:
                memo[w] = ff.mul(wmat(w[:-1]), arrow_mats[w[-1]], p)
        return memo[w]

    return wmat


def materialize_action(
    algebra: Algebra, dims: tuple[int, ...], arrow_mats: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """The action of every basis element other than a vertex or an arrow, read
    off its expression in arrow words."""
    pres = algebra.presentation
    p = algebra.p
    wmat = _word_matrices(algebra, arrow_mats)
    act: dict[int, np.ndarray] = {}
    for i in range(algebra.nv, algebra.dim):
        if i in arrow_mats:
            continue
        s, t = algebra.src[i], algebra.tgt[i]
        out = ff.zeros(dims[s], dims[t])
        for coeff, wi in pres.expressions[i]:
            out = (out + coeff * wmat(pres.words[wi])) % p
        act[i] = out
    return act


def satisfies_relations(
    algebra: Algebra, dims: tuple[int, ...], arrow_mats: dict[int, np.ndarray]
) -> bool:
    pres = algebra.presentation
    p = algebra.p
    wmat = _word_matrices(algebra, arrow_mats)
    for rel in pres.relations:
        if rel and (sum(coeff * wmat(pres.words[wi]) for coeff, wi in rel) % p).any():
            return False
    return True


class Morphism:
    """Module map given by one matrix per vertex (row-vector convention).

    The blocks are taken as given: int64 arrays already reduced into [0, p),
    which every producer (fields, HomSpace.element) hands over.
    """

    __slots__ = ("src", "dst", "mats")

    def __init__(self, src: Module, dst: Module, mats):
        self.src = src
        self.dst = dst
        self.mats = tuple(mats)
        for v in range(src.algebra.nv):
            if self.mats[v].shape != (src.dims[v], dst.dims[v]):
                raise InputError(f"morphism block at vertex {v} has wrong shape")

    @property
    def p(self) -> int:
        return self.src.p

    @classmethod
    def identity(cls, m: Module) -> "Morphism":
        return cls(m, m, tuple(ff.eye(d) for d in m.dims))

    def then(self, other: "Morphism") -> "Morphism":
        """Composite self followed by other."""
        return Morphism(
            self.src, other.dst,
            tuple(ff.mul(a, b, self.p) for a, b in zip(self.mats, other.mats)),
        )

    @property
    def is_zero(self) -> bool:
        return all(not m.any() for m in self.mats)

    def flat(self) -> np.ndarray:
        parts = [m.ravel() for m in self.mats]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"Morphism({list(self.src.dims)} -> {list(self.dst.dims)})"


def is_injective(f: Morphism) -> bool:
    """True iff every vertex matrix has trivial row kernel."""
    return all(ff.row_kernel(m, f.p).shape[0] == 0 for m in f.mats)


def is_surjective(f: Morphism) -> bool:
    return all(ff.rank(m, f.p) == f.dst.dims[v] for v, m in enumerate(f.mats))


def is_isomorphism(f: Morphism) -> bool:
    return f.src.dims == f.dst.dims and all(ff.is_invertible(m, f.p) for m in f.mats)


# ---------------------------------------------------------------------------
# Hom spaces


def _hom_system(m: Module, n: Module) -> tuple[np.ndarray, list[int]]:
    """Commuting-square constraints on Hom(m, n) and the unknowns' block offsets.

    The unknowns are the vertex matrices F_v, flattened row-major and stacked.
    For an arrow a: s -> t the equations act_M[a] @ F_t - F_s @ act_N[a] = 0
    are indexed by (i, l): F_t[k, l] carries act_M[a][i, k] and F_s[i, j]
    carries -act_N[a][j, l].  These are the entries of
    act_M[a] ⊗ I - I ⊗ act_N[a]^T, written without forming either product.
    """
    p = m.p
    offsets = []
    total = 0
    for v in range(m.algebra.nv):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    rows: list[list[int]] = []
    for a in m.algebra.arrows:
        s, t = m.algebra.src[a], m.algebra.tgt[a]
        ms, mt, ns, nt = m.dims[s], m.dims[t], n.dims[s], n.dims[t]
        lhs = (m.act[a] % p).tolist()
        rhs = (n.act[a] % p).tolist()
        os_, ot = offsets[s], offsets[t]
        for i in range(ms):
            for l in range(nt):
                eq = [0] * total
                for k in range(mt):
                    eq[ot + k * nt + l] = lhs[i][k]
                for j in range(ns):
                    col = os_ + i * ns + j
                    eq[col] = (eq[col] - rhs[j][l]) % p
                rows.append(eq)
    system = np.array(rows, dtype=np.int64).reshape(len(rows), total)
    return system, offsets


def hom_basis(m: Module, n: Module) -> list[Morphism]:
    """Basis of the intertwiner space Hom(m, n).

    Solved as the kernel of the commuting-square constraints over all arrow
    generators; multiplicativity extends the law to the whole algebra.
    """
    if not m.algebra.same_as(n.algebra):
        raise InputError("modules live over different algebras")
    system, offsets = _hom_system(m, n)
    if system.shape[1] == 0:
        return []
    sol = ff.kernel_basis(system, m.p)
    out = []
    for k in range(sol.shape[1]):
        vec = sol[:, k]
        mats = []
        for v in range(m.algebra.nv):
            size = m.dims[v] * n.dims[v]
            mats.append(vec[offsets[v] : offsets[v] + size].reshape(m.dims[v], n.dims[v]))
        out.append(Morphism(m, n, tuple(mats)))
    return out


class HomSpace:
    """A Hom space with exhaustive, threshold-guarded element iteration."""

    def __init__(self, m: Module, n: Module, basis: list[Morphism] | None = None):
        self.src = m
        self.dst = n
        self.basis = hom_basis(m, n) if basis is None else basis
        self.p = m.p

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> Morphism:
        """The sum of c * basis[k], summed vertex by vertex into one morphism."""
        mats = [ff.zeros(a, b) for a, b in zip(self.src.dims, self.dst.dims)]
        for c, f in zip(coeffs, self.basis):
            if c % self.p:
                for total, mat in zip(mats, f.mats):
                    total += c * mat
        return Morphism(self.src, self.dst, [total % self.p for total in mats])

    def elements(self, *, thresholds: Thresholds = DEFAULT_THRESHOLDS):
        """Every nonzero element."""
        yield from map(self.element, _coefficients(
            self.p, self.dim, thresholds,
            "Hom-space scan too large; raise scan_limit or shrink the instance"))


def _coefficients(p: int, dim: int, thresholds: Thresholds, message: str):
    """Every nonzero coefficient tuple in F_p^dim in product order;
    BudgetExceeded(message) when F_p^dim has more than thresholds.scan_limit elements."""
    count = p ** dim
    if count > thresholds.scan_limit:
        raise BudgetExceeded(message, needed=count, limit=thresholds.scan_limit)
    for coeffs in itertools.product(range(p), repeat=dim):
        if any(coeffs):
            yield coeffs


# ---------------------------------------------------------------------------
# submodules, quotients, sums


@dataclass
class QuotientParts:
    module: Module
    projection: Morphism
    rep_rows: tuple[np.ndarray, ...]  # class representatives inside the ambient


def submodule_from_rows(m: Module, rows: list[np.ndarray]) -> tuple[Module, Morphism]:
    """Submodule spanned vertex-wise by the given row spaces (must be action-closed)."""
    p = m.p
    alg = m.algebra
    rows = [ff.row_space_basis(r, p) for r in rows]
    dims = tuple(r.shape[0] for r in rows)
    act = {}
    for a in alg.arrows:
        s, t = alg.src[a], alg.tgt[a]
        pushed = ff.mul(rows[s], m.act[a], p)
        coords = ff.coordinates(pushed, rows[t], p)
        if coords is None:
            raise InputError("rows are not closed under the action")
        act[a] = coords
    sub = Module(alg, dims, act)
    incl = Morphism(sub, m, tuple(rows))
    return sub, incl


def quotient_by_rows(m: Module, rows: list[np.ndarray]) -> QuotientParts:
    """Quotient of m by the action-closed submodule spanned by the rows."""
    p = m.p
    alg = m.algebra
    comp, projs = [], []
    for v in range(alg.nv):
        chosen, proj = ff.complement(rows[v], range(m.dims[v]), p)
        comp.append(ff.eye(m.dims[v])[chosen])
        projs.append(proj)
    dims = tuple(c.shape[0] for c in comp)
    act = {}
    for a in alg.arrows:
        s, t = alg.src[a], alg.tgt[a]
        act[a] = ff.mul(ff.mul(comp[s], m.act[a], p), projs[t], p)
    quot = Module(alg, dims, act)
    proj = Morphism(m, quot, tuple(projs))
    return QuotientParts(quot, proj, tuple(comp))


def direct_sum(ms: list[Module], algebra: Algebra | None = None) -> Module:
    """Block-diagonal sum, summands in order: the split extension of the last by the rest."""
    if not ms:
        if algebra is None:
            raise InputError("empty direct sum needs an explicit algebra")
        return Module.zero(algebra)
    return _extension([(z, None) for z in ms[:-1]], ms[-1], check=False)


# ---------------------------------------------------------------------------
# endomorphism scans: iso, indecomposability, brick


def _first_invertible(basis: list[Morphism]) -> Morphism | None:
    return next((f for f in basis if is_isomorphism(f)), None)


def is_isomorphic(
    m: Module, n: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> bool:
    """Exhaustive search for an invertible intertwiner, with cheap pre-filters.

    An invertible basis element decides True at once for any modules.
    """
    if m.is_zero and n.is_zero:
        return True
    if m.dims != n.dims:
        return False
    hom = HomSpace(m, n)
    if hom.dim == 0:
        return False
    if _first_invertible(hom.basis) is not None:
        return True
    if len(hom_basis(n, m)) != hom.dim:
        return False
    for f in hom.elements(thresholds=thresholds):
        if is_isomorphism(f):
            return True
    return False


def isomorphism_from_indecomposable(rep: Module, m: Module) -> Morphism | None:
    """An isomorphism rep -> m for an indecomposable rep, or None if rep ≇ m.

    If rep ≅ m then Hom(rep, m) ≅ End(rep), a local ring, whose non-units
    form a proper subspace (its radical).  So some basis element of
    Hom(rep, m) is invertible; conversely any invertible one is an
    isomorphism.  No splitting field is needed.
    """
    return _first_invertible(hom_basis(rep, m)) if rep.dims == m.dims else None


def is_isomorphic_to_indecomposable(rep: Module, m: Module) -> bool:
    """Decide rep ≅ m for an indecomposable rep, without scanning."""
    # the dims test first keeps universe lookups (id_of) at one call per member
    return rep.dims == m.dims and isomorphism_from_indecomposable(rep, m) is not None


def _splitting_endomorphism(m: Module, end: HomSpace,
                            thresholds: Thresholds) -> Morphism | None:
    """An f in End(m) with m = im f ⊕ ker f and both nonzero, or None if m is indecomposable.

    A Fitting-lemma pre-check comes first: some power f^N of an End basis
    element with 0 < rank < dim m splits m.  The decision procedure is the
    exhaustive scan of End(m) for an idempotent other than 0 and 1.
    """
    n = m.total_dim
    for f in end.basis:
        power = f
        for _ in range(max(n.bit_length(), 1)):
            power = power.then(power)  # f^(2^k) stabilizes once 2^k >= n
        if 0 < sum(ff.rank(mat, m.p) for mat in power.mats) < n:
            return power
    ident = Morphism.identity(m)
    for f in end.elements(thresholds=thresholds):
        f_sq = f.then(f)
        if all(np.array_equal(a, b) for a, b in zip(f_sq.mats, f.mats)):
            if not all(np.array_equal(a, b) for a, b in zip(f.mats, ident.mats)):
                return f
    return None


def is_indecomposable(m: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS,
                      end_basis: list[Morphism] | None = None) -> bool:
    """True iff End(m) has no idempotent besides 0 and 1 (exhaustive scan).

    A Fitting-lemma pre-check on the End basis catches most decomposables
    without scanning; the scan remains the decision procedure.  Pass
    end_basis = hom_basis(m, m) when the caller already has it.
    """
    if m.is_zero:
        raise InputError("the zero module is not indecomposable by convention")
    return _splitting_endomorphism(m, HomSpace(m, m, end_basis), thresholds) is None


def is_brick(m: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS,
             end_basis: list[Morphism] | None = None) -> bool:
    """True iff every nonzero endomorphism is invertible (exhaustive scan).

    Pass end_basis = hom_basis(m, m) when the caller already has it.
    """
    if m.is_zero:
        return False
    end = HomSpace(m, m, end_basis)
    for f in end.elements(thresholds=thresholds):
        if not is_isomorphism(f):
            return False
    return True


# ---------------------------------------------------------------------------
# short exact sequences and Ext^1


@dataclass
class ShortExactSequence:
    """0 -> L -> M -> N -> 0 given by the mono and the epi."""

    mono: Morphism
    epi: Morphism

    @property
    def sub(self) -> Module:
        return self.mono.src

    @property
    def middle(self) -> Module:
        return self.mono.dst

    @property
    def quot(self) -> Module:
        return self.epi.dst

    def validate(self) -> bool:
        if self.mono.dst is not self.epi.src:
            return False
        if not is_injective(self.mono) or not is_surjective(self.epi):
            return False
        p = self.mono.p
        for v in range(self.middle.algebra.nv):
            if self.sub.dims[v] + self.quot.dims[v] != self.middle.dims[v]:
                return False
            if not np.array_equal(ff.row_space_basis(self.mono.mats[v], p),
                                  ff.row_kernel(self.epi.mats[v], p)):
                return False
        return True


def is_split(ses: ShortExactSequence) -> bool:
    """Solve for a section of the epi (linear, no scanning)."""
    p = ses.mono.p
    hom = hom_basis(ses.quot, ses.middle)
    if not hom:
        return ses.quot.is_zero
    cols = []
    for g in hom:
        composite = g.then(ses.epi)
        cols.append(composite.flat())
    target = Morphism.identity(ses.quot).flat()
    mat = np.array(cols).T % p
    return ff.solve(mat, target.reshape(-1, 1), p) is not None


def projective_module(algebra: Algebra, v: int) -> Module:
    """The indecomposable projective e_v A (regular right action)."""
    idx = [i for i in range(algebra.dim) if algebra.src[i] == v]
    by_vertex: dict[int, list[int]] = {}
    for i in idx:
        by_vertex.setdefault(algebra.tgt[i], []).append(i)
    dims = tuple(len(by_vertex.get(w, [])) for w in range(algebra.nv))
    pos = {}
    for w, items in by_vertex.items():
        for r, i in enumerate(items):
            pos[i] = (w, r)
    act = {}
    for a in algebra.arrows:
        s, t = algebra.src[a], algebra.tgt[a]
        block = ff.zeros(dims[s], dims[t])
        for i in by_vertex.get(s, []):
            r = pos[i][1]
            prod = algebra.mult[i, a]
            for k in np.nonzero(prod)[0]:
                w2, r2 = pos[int(k)]
                assert w2 == t
                block[r, r2] = prod[k]
        act[a] = block
    return Module(algebra, dims, act)


def regular_module(algebra: Algebra) -> Module:
    return direct_sum([projective_module(algebra, v) for v in range(algebra.nv)], algebra)


@dataclass
class Ext1:
    """Ext^1(quot, sub) as arrow cocycles modulo coboundaries.

    A cocycle phi is one matrix phi_a: quot_{s(a)} x sub_{t(a)} per arrow a,
    flattened row-major and concatenated in arrow order.  Its middle term is
    the block module quot ⊕ sub (quotient rows first) on which a acts as
    [[quot_a, phi_a], [0, sub_a]]; phi is a cocycle iff that action satisfies
    the relations.  The coboundaries phi_a = quot_a g_t - g_s sub_a, for g in
    ⊕_v quot_v x sub_v, are the base changes [[1, g], [0, 1]] and give the
    split extension.
    """

    quot: Module
    sub: Module
    basis: np.ndarray  # rows: cocycles spanning a complement of the coboundaries

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def element(self, coeffs) -> np.ndarray:
        return np.asarray(coeffs, dtype=np.int64) @ self.basis % self.sub.p

    def all_cocycles(self, *, thresholds: Thresholds = DEFAULT_THRESHOLDS):
        """Every nonzero cocycle in the span of the basis."""
        yield from map(self.element, _coefficients(
            self.sub.p, self.dim, thresholds, "Ext cocycle scan too large"))


def ext1_basis(z: Module, x: Module) -> Ext1:
    """Ext^1(z, x): the cocycles solving the relations, modulo the coboundaries.

    The relations are linear in phi: on the block module, a word a_1...a_k
    has upper-right block sum_i z_{a_1...a_(i-1)} phi_(a_i) x_(a_(i+1)...a_k),
    and each term is np.kron(prefix, suffix^T) on the row-major phi_(a_i).
    The coboundary map g -> (z_a g_t - g_s x_a)_a is the Hom(z, x) system
    read column-wise: Hom is its kernel, the coboundaries its image.
    """
    if not z.algebra.same_as(x.algebra):
        raise InputError("modules live over different algebras")
    alg, p = z.algebra, z.p
    pres = alg.presentation
    offsets = {}
    width = 0
    for a in alg.arrows:
        offsets[a] = width
        width += z.dims[alg.src[a]] * x.dims[alg.tgt[a]]
    if not width:
        return Ext1(z, x, ff.zeros(0, 0))
    zword, xword = _word_matrices(alg, z.act), _word_matrices(alg, x.act)
    eqs = []
    for rel in pres.relations:
        if not rel:
            continue
        first = pres.words[rel[0][1]]
        zs, xt = z.dims[alg.src[first[0]]], x.dims[alg.tgt[first[-1]]]
        block = ff.zeros(zs * xt, width)
        if not block.size:
            continue
        for coeff, wi in rel:
            w = pres.words[wi]
            for i, a in enumerate(w):
                cols = z.dims[alg.src[a]] * x.dims[alg.tgt[a]]
                if cols:
                    prefix = zword(w[:i]) if i else ff.eye(zs)
                    suffix = xword(w[i + 1:]) if i + 1 < len(w) else ff.eye(xt)
                    block[:, offsets[a] : offsets[a] + cols] += coeff * np.kron(prefix, suffix.T)
        eqs.append(block % p)
    system = np.concatenate(eqs) if eqs else ff.zeros(0, width)
    cocycles = ff.kernel_basis(system, p).T
    # the coboundaries (columns of the Hom system) in coordinates on the cocycle rows
    coboundaries = ff.solve(cocycles.T, _hom_system(z, x)[0], p).T
    chosen, _ = ff.complement(coboundaries, range(cocycles.shape[0]), p)
    return Ext1(z, x, cocycles[chosen])


def _extension(parts: list[tuple[Module, np.ndarray | None]], x: Module, *,
               check: bool) -> Module:
    """The block module (⊕ z) ⊕ x of cocycles phi in Ext^1(z, x), one per summand z.

    Arrow a acts on the rows of each z as [z_a, phi_a] and on the rows of x
    as x_a; the rows of the summands z come first, in order (see Ext1).  A
    phi of None leaves its block zero, so z splits off.
    """
    alg = x.algebra
    dims = tuple(sum(z.dims[u] for z, _ in parts) + x.dims[u] for u in range(alg.nv))
    mats = {a: ff.zeros(dims[alg.src[a]], dims[alg.tgt[a]]) for a in alg.arrows}
    off = [0] * alg.nv
    for z, phi in parts:
        k = 0
        for a in alg.arrows:
            s, t = alg.src[a], alg.tgt[a]
            zs, zt, xt = z.dims[s], z.dims[t], x.dims[t]
            mats[a][off[s] : off[s] + zs, off[t] : off[t] + zt] = z.act[a]
            if phi is not None:
                mats[a][off[s] : off[s] + zs, dims[t] - xt :] = phi[k : k + zs * xt].reshape(zs, xt)
            k += zs * xt
        off = [o + d for o, d in zip(off, z.dims)]
    for a in alg.arrows:
        mats[a][off[alg.src[a]] :, off[alg.tgt[a]] :] = x.act[a]
    return Module(alg, dims, mats, check=check)


# ---------------------------------------------------------------------------
# submodule enumeration


def generated_rows(m: Module, gens) -> tuple[np.ndarray, ...]:
    """Canonical per-vertex rows of the submodule generated by the rows gens[s]:
    at vertex t, the span of g.b over the basis elements b: s -> t."""
    alg, p = m.algebra, m.p
    return tuple(ff.row_space_basis(np.concatenate(
        [ff.zeros(0, d)] + [ff.mul(gens[alg.src[b]], m.act_block(b), p) for b in range(alg.dim)
                            if alg.tgt[b] == t and gens[alg.src[b]].shape[0]]), p)
        for t, d in enumerate(m.dims))


def submodule_rows(
    m: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> list[tuple[np.ndarray, ...]]:
    """All submodules as canonical per-vertex row bases, ordered by (dimension, signature).

    Every submodule is a sum of cyclic ones, and x.A depends only on the line
    through x, so the cyclic submodules come from one vector per projective
    point of each vertex space (first nonzero entry 1).  A breadth-first walk
    from 0 reaches every submodule by adding one cyclic submodule at a time;
    it skips a cyclic submodule whose generator already lies in the current
    one, since the sum is then a submodule already seen.  A module of
    dimension at most 1 has no submodules but 0 and itself, which is answered
    directly whenever the walk would stay within its budget.
    """
    p = m.p
    gen_count = sum(p ** d for d in m.dims)
    if gen_count > thresholds.submodule_vectors:
        raise BudgetExceeded(
            f"submodule generation for dimension vector {list(m.dims)} too large",
            needed=gen_count, limit=thresholds.submodule_vectors,
        )

    def sig(rows: tuple[np.ndarray, ...]) -> tuple:
        return tuple(ff.signature(r) for r in rows)

    zero_rows = tuple(ff.zeros(0, d) for d in m.dims)
    total = sum(m.dims)
    if total <= 1 and total < thresholds.submodule_count:
        return [zero_rows] + [tuple(ff.eye(d) for d in m.dims)] * total
    cyclic: dict[tuple, tuple[int, np.ndarray, tuple[np.ndarray, ...]]] = {}
    for w, d in enumerate(m.dims):
        for vec in _subspace_bases(d, 1, p):
            rows = generated_rows(m, zero_rows[:w] + (vec,) + zero_rows[w + 1:])
            cyclic.setdefault(sig(rows), (w, vec, rows))
    seen = {sig(zero_rows): zero_rows}
    frontier = [zero_rows]
    while frontier:
        if len(seen) > thresholds.submodule_count:
            raise BudgetExceeded(
                f"too many submodules for dimension vector {list(m.dims)}",
                needed=len(seen), limit=thresholds.submodule_count,
            )
        nxt = []
        for rows in frontier:
            for w, vec, c in cyclic.values():
                if ff.coordinates(vec, rows[w], p) is not None:
                    continue
                summed = tuple(ff.subspace_sum(x, y, p) if y.shape[0] else x
                               for x, y in zip(rows, c))
                key = sig(summed)
                if key not in seen:
                    seen[key] = summed
                    nxt.append(summed)
        frontier = nxt
    return sorted(seen.values(), key=lambda rows: (sum(r.shape[0] for r in rows), sig(rows)))


# ---------------------------------------------------------------------------
# universes of indecomposables and Krull-Schmidt decomposition


def memo(fn):
    """Memoise fn(owner, *key): computed once per owner and key, kept in owner.cache.

    The owner is an IndecUniverse or a Recollement, whose __init__ makes
    owner.cache a plain dict; every per-universe and per-recollement table is
    kept there through this one helper.  The cache key is fn itself, the
    wrapped function, plus the positional arguments after the owner, so two
    functions of one name never collide; call memoised functions with
    positional arguments only.

    Every cached value must keep one rule: it must not refer back to its
    owner.  Such a reference makes a cycle, and the owner then lives on until
    the cyclic collector runs.  So the cache holds ids, id masks, flags,
    tables, modules, morphisms and Hom and Ext spaces, and nothing that
    holds the owner itself.
    """

    @functools.wraps(fn)
    def cached(owner, *key):
        slot = (fn, *key)
        cache = owner.cache
        if slot not in cache:
            cache[slot] = fn(owner, *key)
        return cache[slot]

    return cached


class IndecUniverse:
    """Canonical representatives of all indecomposables up to a dimension bound."""

    def __init__(self, algebra: Algebra, bound: int, strategy: str,
                 modules: list[Module], thresholds: Thresholds = DEFAULT_THRESHOLDS):
        self.algebra = algebra
        self.bound = bound
        self.strategy = strategy
        self.modules = modules
        self.thresholds = thresholds
        self.cache: dict = {}  # see memo

    def __len__(self) -> int:
        return len(self.modules)

    @property
    def ids(self) -> list[int]:
        return list(range(len(self.modules)))

    def module(self, uid: int) -> Module:
        return self.modules[uid]

    def id_of(self, m: Module) -> int | None:
        """Universe id of an indecomposable module, or None."""
        for uid, rep in enumerate(self.modules):
            if is_isomorphic_to_indecomposable(rep, m):
                return uid
        return None

    @memo
    def hom_space(self, i: int, j: int) -> HomSpace:
        return HomSpace(self.modules[i], self.modules[j])

    @memo
    def ext_space(self, quot_id: int, sub_id: int) -> Ext1:
        return ext1_basis(self.modules[quot_id], self.modules[sub_id])

@memo
def submodule_sequences(u: IndecUniverse, uid: int) -> tuple:
    """(sub, inclusion, quotient parts) of every proper nonzero submodule of a
    member, in submodule_rows order: the sequences 0 -> sub -> M -> M/sub -> 0."""
    m = u.modules[uid]
    table = []
    for rows in submodule_rows(m, u.thresholds):
        if 0 < sum(r.shape[0] for r in rows) < m.total_dim:
            sub, incl = submodule_from_rows(m, list(rows))
            table.append((sub, incl, quotient_by_rows(m, list(rows))))
    return tuple(table)


def decompose(m: Module, universe: IndecUniverse) -> tuple[int, ...]:
    """Krull-Schmidt decomposition as a sorted tuple of universe ids.

    The linear member test comes first: an invertible basis element of
    Hom(rep, m) makes m ≅ rep, hence indecomposable, and if m ≅ rep such an
    element exists because End(rep) is local (isomorphism_from_indecomposable).
    So the End scan of _splitting_endomorphism runs only for a module that is
    no member's copy: it splits a decomposable one, and an indecomposable one
    is outside the universe.
    """
    if m.is_zero:
        return ()
    uid = universe.id_of(m)
    if uid is not None:
        return (uid,)
    f = _splitting_endomorphism(m, HomSpace(m, m), universe.thresholds)
    if f is None:
        raise UniverseExhausted(m.dims)
    sub_i, _ = submodule_from_rows(m, [ff.row_space_basis(mat, m.p) for mat in f.mats])
    sub_k, _ = submodule_from_rows(m, [ff.row_kernel(mat, m.p) for mat in f.mats])
    return tuple(sorted(decompose(sub_i, universe) + decompose(sub_k, universe)))


def build_universe(
    algebra: Algebra,
    dim_bound: int,
    strategy: str = "auto",
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> IndecUniverse:
    """Enumerate all indecomposables of total dimension <= dim_bound.

    analytic-typeA builds interval modules directly (requires a relation-free
    linear A_n quiver); extensions builds every other algebra's members as
    extensions of smaller members by simples.  The two strategies produce
    iso-class-bijective universes where both apply.
    """
    if strategy == "auto":
        strategy = "analytic-typeA" if _relation_free_chain(algebra) else "extensions"
    if strategy == "analytic-typeA":
        mods = _analytic_typeA(algebra, dim_bound)
    elif strategy == "extensions":
        mods = _extensions(algebra, dim_bound, thresholds)
    else:
        raise InputError(f"unknown universe strategy {strategy!r}")
    return IndecUniverse(algebra, dim_bound, strategy, mods, thresholds)


def _relation_free_chain(algebra: Algebra) -> list[str] | None:
    """The vertex chain of a linear A_n path algebra without relations, else None.

    Every relation on linear A_n kills a path, so a dimension of n(n+1)/2
    means that no relation holds.
    """
    chain = algebra.quiver.is_linear_An() if algebra.quiver is not None else None
    if chain is None or algebra.dim != len(chain) * (len(chain) + 1) // 2:
        return None
    return chain


def _analytic_typeA(algebra: Algebra, bound: int) -> list[Module]:
    chain = _relation_free_chain(algebra)
    if chain is None:
        raise InputError("analytic-typeA requires a relation-free linear A_n quiver")
    order = [list(algebra.vertex_labels).index(v) for v in chain]
    arrows = list(algebra.arrows)
    arrow_at = {}
    for a in arrows:
        arrow_at[algebra.src[a]] = a
    mods = []
    n = len(chain)
    for i in range(n):
        for j in range(i, n):
            if j - i + 1 > bound:
                continue
            dims = [0] * algebra.nv
            for k in range(i, j + 1):
                dims[order[k]] = 1
            arrow_mats = {}
            for a in arrows:
                s, t = algebra.src[a], algebra.tgt[a]
                if dims[s] and dims[t]:
                    arrow_mats[a] = ff.eye(1)
                else:
                    arrow_mats[a] = ff.zeros(dims[s], dims[t])
            mods.append(Module(algebra, tuple(dims), arrow_mats))
    mods.sort(key=lambda m: (m.total_dim, m.dims))
    return mods


def _multisets(items: list[tuple[int, int, int]], total: int, start: int = 0):
    """Multisets ((index, multiplicity), ...) of items (index, size, cap) of the given total."""
    if total == 0:
        yield ()
        return
    for k in range(start, len(items)):
        i, size, cap = items[k]
        for m in range(1, min(cap, total // size) + 1):
            for rest in _multisets(items, total - m * size, k + 1):
                yield ((i, m),) + rest


def _subspace_count(d: int, m: int, p: int) -> int:
    """Number of m-dimensional subspaces of F_p^d (Gaussian binomial)."""
    num = den = 1
    for k in range(m):
        num *= p ** (d - k) - 1
        den *= p ** (k + 1) - 1
    return num // den


def _subspace_bases(d: int, m: int, p: int) -> list[np.ndarray]:
    """The RREF basis (m x d) of every m-dimensional subspace of F_p^d."""
    out = []
    for pivots in itertools.combinations(range(d), m):
        free = [(r, c) for r in range(m) for c in range(pivots[r] + 1, d) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            mat = ff.zeros(m, d)
            mat[range(m), pivots] = 1
            for (r, c), val in zip(free, values):
                mat[r, c] = val
            out.append(mat)
    return out


def _extensions(algebra: Algebra, bound: int, thresholds: Thresholds) -> list[Module]:
    """Indecomposables as middle terms of 0 -> S_v -> E -> X -> 0, by total dimension.

    The radical is nilpotent, so an indecomposable E of dimension n >= 2 has a
    simple S_v in its socle, and E/S_v is a sum X of members of dimension < n.
    The class of E has one component in Ext¹(X_i, S_v) per summand; a zero
    component would split X_i off.  Aut(X) moves the components of a summand
    repeated m times to any basis of their span, so only summands with
    m <= dim Ext¹(X_i, S_v) are tried, with one RREF basis per m-dimensional
    span.  Every candidate is still checked for the relations (Module check),
    for indecomposability (Fitting pre-check, then the End scan), and against
    the members found so far by the linear iso test.  First discovery (vertex
    v, summand multiset, spans) is canonical; each dimension is then sorted
    by dims.
    """
    if bound < 1:
        return []
    p = algebra.p
    simples = [Module.simple(algebra, v) for v in range(algebra.nv)]
    members = simples[::-1]
    cocycles: dict[tuple[int, int], np.ndarray] = {}
    candidates = 0
    for n in range(2, bound + 1):
        found: list[tuple[Module, int]] = []  # with End dimensions, a cheap iso pre-filter
        for v in range(algebra.nv):
            items = []
            for i, x in enumerate(members):
                if (i, v) not in cocycles:
                    cocycles[i, v] = ext1_basis(x, simples[v]).basis
                if len(cocycles[i, v]):
                    items.append((i, x.total_dim, len(cocycles[i, v])))
            for summands in _multisets(items, n - 1):
                count = math.prod(_subspace_count(len(cocycles[i, v]), m, p) for i, m in summands)
                if count > thresholds.scan_limit:
                    raise BudgetExceeded(
                        f"too many extension candidates for one quotient of dimension {n - 1}",
                        needed=count, limit=thresholds.scan_limit,
                    )
                candidates += count
                if candidates > thresholds.enumeration_states:
                    raise BudgetExceeded(
                        "too many extension candidates; lower the bound",
                        needed=candidates, limit=thresholds.enumeration_states,
                    )
                spans = [_subspace_bases(len(cocycles[i, v]), m, p) for i, m in summands]
                for choice in itertools.product(*spans):
                    parts = []
                    for (i, _), basis in zip(summands, choice):
                        parts += [(members[i], phi) for phi in ff.mul(basis, cocycles[i, v], p)]
                    cand = _extension(parts, simples[v], check=True)
                    end = hom_basis(cand, cand)
                    if not is_indecomposable(cand, thresholds, end):
                        continue
                    if not any(e == len(end) and is_isomorphic_to_indecomposable(rep, cand)
                               for rep, e in found):
                        found.append((cand, len(end)))
        found.sort(key=lambda f: f[0].dims)
        members += [m for m, _ in found]
    return members
