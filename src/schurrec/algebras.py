"""Finite-dimensional algebras as structure-constant tables over F_p.

An Algebra is a basis with multiplication table plus a complete set of
orthogonal vertex idempotents.  The invariants maintained by every
constructor:

  * basis[0:nv] are the vertex idempotents, one per vertex;
  * every basis element b is homogeneous: e_src(b) * b * e_tgt(b) = b
    (paths are written source-on-the-left, composing left to right);
  * the non-vertex basis elements span the Jacobson radical, which is
    nilpotent.

A bound-quiver algebra kQ/I and a quotient A/AeA are both built as an
algebra modulo a two-sided ideal, by one routine (_quotient).  For kQ/I the
algebra is kQ modulo the monomial relations of I, whose basis is the paths
that contain none of them (_path_algebra), and the ideal is generated by the
other relations.

Every derived table is a re-indexing of its parents' tables, never built
entry by entry: the corner eAe is a selection of basis elements, a quotient
A/I is a selection followed by the projection onto it (both by _reindexed),
and [[B, 0], [M, C]] assigns B's and C's tables and M's actions to four
blocks of its own.

Modules are RIGHT modules throughout the package; see modules.py.

Algebras are immutable after construction and safe to share across
workers.  Derived data (arrow generators, enumeration relations, word
expressions) is computed lazily and cached.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import fields as ff
from .errors import BudgetExceeded, InfiniteDimensional, InputError


@dataclass(frozen=True)
class Quiver:
    """Finite quiver: vertex identifiers and named arrows."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex identifiers")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise InputError(f"arrow {name}: endpoint not a declared vertex")

    def is_acyclic(self) -> bool:
        out = {v: [t for _, s, t in self.arrows if s == v] for v in self.vertices}
        seen: dict[str, int] = {}  # 0 = in progress, 1 = done

        def visit(v: str) -> bool:
            state = seen.get(v)
            if state == 0:
                return False
            if state == 1:
                return True
            seen[v] = 0
            ok = all(visit(w) for w in out[v])
            seen[v] = 1
            return ok

        return all(visit(v) for v in self.vertices)

    def is_linear_An(self) -> list[str] | None:
        """Vertex chain v1 -> v2 -> ... -> vn if the quiver is exactly that."""
        if len(self.arrows) != len(self.vertices) - 1 and self.vertices:
            if len(self.vertices) == 1 and not self.arrows:
                return list(self.vertices)
            return None
        if not self.vertices:
            return None
        if len(self.vertices) == 1:
            return list(self.vertices) if not self.arrows else None
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        pred: dict[str, list[str]] = {v: [] for v in self.vertices}
        for _, s, t in self.arrows:
            succ[s].append(t)
            pred[t].append(s)
        starts = [v for v in self.vertices if not pred[v]]
        if len(starts) != 1:
            return None
        chain = [starts[0]]
        while succ[chain[-1]]:
            nxt = succ[chain[-1]]
            if len(nxt) != 1 or len(pred[nxt[0]]) != 1:
                return None
            if nxt[0] in chain:
                return None
            chain.append(nxt[0])
        return chain if len(chain) == len(self.vertices) else None


@dataclass(frozen=True)
class Presentation:
    """Generators and enumeration data derived from the multiplication table.

    arrows: basis indices spanning rad modulo rad^2.
    words: composable arrow sequences (tuples of basis indices), grouped so
      that every word in relations[k] shares one (source, target) block.
    relations: per block, coefficient lists over words; a module assignment
      on the arrows extends to the algebra iff all of them evaluate to zero.
    expressions: for every non-vertex basis element, a combination of words
      evaluating to it.
    """

    arrows: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    relations: tuple[tuple[tuple[int, int], ...], ...]  # ((coeff, word_idx), ...)
    expressions: dict[int, tuple[tuple[int, int], ...]]


class Algebra:
    """Structure-constant algebra with distinguished vertex idempotents."""

    def __init__(
        self,
        p: int,
        vertex_labels: list[str],
        labels: list[str],
        src: list[int],
        tgt: list[int],
        mult: np.ndarray,
        *,
        quiver: Quiver | None = None,
        check: bool = True,
    ):
        self.p = ff.check_prime(p)
        self.vertex_labels = tuple(vertex_labels)
        self.labels = tuple(labels)
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.mult = mult.astype(np.int64) % p
        self.quiver = quiver
        self._presentation: Presentation | None = None
        self._hash: str | None = None
        if check:
            self._check()

    @property
    def nv(self) -> int:
        return len(self.vertex_labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def product_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors."""
        return np.einsum("i,j,ijk->k", x, y, self.mult) % self.p

    def _check(self) -> None:
        d, p = self.dim, self.p
        if self.mult.shape != (d, d, d):
            raise InputError("multiplication table has wrong shape")
        if len(self.src) != d or len(self.tgt) != d:
            raise InputError("src/tgt vectors have wrong length")
        for v in range(self.nv):
            if self.src[v] != v or self.tgt[v] != v:
                raise InputError("vertex idempotent must sit at its own vertex")
        # orthogonal idempotents, unit decomposition and homogeneity:
        # e_v b_i = [v = src(i)] b_i and b_i e_v = [v = tgt(i)] b_i; the first
        # failure in (i, v) order is reported, the left product before the right
        nv, one_hot = self.nv, np.eye(d, dtype=np.int64)
        vs = np.arange(nv)
        left = self.mult[:nv] != (vs[:, None] == np.array(self.src))[:, :, None] * one_hot
        right = self.mult[:, :nv] != (np.array(self.tgt)[:, None] == vs)[:, :, None] * one_hot[:, None]
        bad = np.argwhere(np.stack([left.any(axis=2).T, right.any(axis=2)], axis=2))
        if bad.size:
            i, v, side = (int(x) for x in bad[0])
            e_v, b_i = f"e_{self.vertex_labels[v]}", self.labels[i]
            raise InputError(f"{b_i} * {e_v} is not homogeneous" if side
                             else f"{e_v} * {b_i} is not homogeneous")
        # (b_i b_j) b_k against b_i (b_j b_k), one i at a time: d^3 memory, not d^4
        m_kl, jk_m = self.mult.reshape(d, d * d), self.mult.reshape(d * d, d)
        for i in range(d):
            diff = ((self.mult[i] @ m_kl).reshape(d, d, d)
                    - (jk_m @ self.mult[i]).reshape(d, d, d)) % p
            if diff.any():
                j, k = (int(x) for x in np.argwhere(diff)[0][:2])
                raise InputError(
                    "associativity fails on basis triple "
                    f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                )
        # No check that products land in their (source, target) block is
        # needed: homogeneity gives e_v e_w = [v = w] e_w, so by associativity
        # b_i b_j = b_i (e_tgt(i) e_src(j)) b_j vanishes off-block, and
        # e_src(i) (b_i b_j) = b_i b_j = (b_i b_j) e_tgt(j) puts every component
        # of a product in block (src(i), tgt(j)).
        # the non-vertex part must be nilpotent (radical invariant);
        # _radical_powers raises when a power stops shrinking before zero
        self._radical_powers()

    def _radical_powers(self) -> list[np.ndarray]:
        """Row bases of rad, rad^2, ... down to the zero space (inclusive)."""
        d = self.dim
        radical = ff.eye(d)[self.nv :]
        powers = [radical]
        while powers[-1].shape[0]:
            prev = powers[-1]
            # row r times b_j, for every row and then every radical basis element j
            prods = np.einsum("ri,ijk->rjk", prev, self.mult[:, self.nv :]).reshape(-1, d)
            nxt = ff.row_space_basis(prods % self.p, self.p)
            if nxt.shape[0] >= prev.shape[0] and prev.shape[0] > 0:
                raise InputError("radical is not nilpotent")
            powers.append(nxt)
        return powers

    @property
    def presentation(self) -> Presentation:
        if self._presentation is None:
            self._presentation = self._build_presentation()
        return self._presentation

    @property
    def arrows(self) -> tuple[int, ...]:
        return self.presentation.arrows

    def _build_presentation(self) -> Presentation:
        d, p = self.dim, self.p
        powers = self._radical_powers()
        rad2 = powers[1] if len(powers) > 1 else ff.zeros(0, d)
        # arrows: basis elements of rad independent modulo rad^2
        arrows, _ = ff.complement(rad2, range(self.nv, d), p)
        # powers[k] is rad^(k+1); the last entry is the zero space, so
        # rad^len(powers) = 0 and words must run up to that length for the
        # relation kernel to force all longer products to vanish.
        nilpotency = len(powers)
        # composable arrow words up to the nilpotency order
        words: list[tuple[int, ...]] = []
        evals: list[np.ndarray] = []
        frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
        for a in arrows:
            w = (a,)
            vec = np.zeros(d, dtype=np.int64)
            vec[a] = 1
            words.append(w)
            evals.append(vec)
            frontier.append((w, vec))
        for _ in range(1, nilpotency):
            nxt = []
            for w, vec in frontier:
                for a in arrows:
                    if self.src[a] != self.tgt[w[-1]]:
                        continue
                    w2 = w + (a,)
                    vec2 = np.einsum("i,ik->k", vec, self.mult[:, a]) % p
                    words.append(w2)
                    evals.append(vec2)
                    nxt.append((w2, vec2))
            frontier = nxt
            if len(words) > 4096:
                raise BudgetExceeded("word enumeration too large", needed=len(words), limit=4096)
        # relations and expressions, per (source, target) block
        relations: list[tuple[tuple[int, int], ...]] = []
        expressions: dict[int, tuple[tuple[int, int], ...]] = {}
        blocks: dict[tuple[int, int], list[int]] = {}
        for wi, w in enumerate(words):
            blocks.setdefault((self.src[w[0]], self.tgt[w[-1]]), []).append(wi)
        for (s, t), wis in sorted(blocks.items()):
            emat = np.array([evals[wi] for wi in wis]).reshape(len(wis), d)
            for row in ff.row_kernel(emat, p):
                rel = tuple((int(c), wis[k]) for k, c in enumerate(row) if c)
                relations.append(rel)
            for i in range(self.nv, d):
                if (self.src[i], self.tgt[i]) != (s, t):
                    continue
                coords = ff.solve(emat.T, ff.eye(d)[i : i + 1].T, p)
                if coords is None:
                    raise InputError(f"basis element {self.labels[i]} not generated by arrows")
                expressions[i] = tuple(
                    (int(c), wis[k]) for k, c in enumerate(coords[:, 0]) if c
                )
        return Presentation(tuple(arrows), tuple(words), tuple(relations), expressions)

    @property
    def algebra_hash(self) -> str:
        if self._hash is None:
            payload = {
                "char": self.p,
                "vertices": list(self.vertex_labels),
                "labels": list(self.labels),
                "src": list(self.src),
                "tgt": list(self.tgt),
                "mult": [
                    [int(i), int(j), int(k), int(v)]
                    for (i, j, k), v in np.ndenumerate(self.mult)
                    if v
                ],
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            self._hash = hashlib.sha256(blob).hexdigest()[:16]
        return self._hash

    def same_as(self, other: "Algebra") -> bool:
        return self is other or self.algebra_hash == other.algebra_hash

    # an algebra is never mutated after construction: equal and hashed by content
    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self.same_as(other)

    def __hash__(self) -> int:
        return hash(self.algebra_hash)

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, vertices={list(self.vertex_labels)}, p={self.p})"


@dataclass(frozen=True)
class IdempotentSpec:
    """A subset of vertices; the idempotent e is the sum of their e_v."""

    algebra: Algebra
    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", vs)
        if any(v < 0 or v >= self.algebra.nv for v in vs):
            raise InputError("idempotent vertex index out of range")

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.vertices)
        return tuple(v for v in range(self.algebra.nv) if v not in inside)


# ---------------------------------------------------------------------------
# path algebras of bound quivers


def _path_label(quiver: Quiver, path: tuple[int, ...] | str) -> str:
    if isinstance(path, str):
        return f"e_{path}"
    return "*".join(quiver.arrows[a][0] for a in path)


def algebra_from_quiver(
    quiver: Quiver,
    relations: list[list[tuple[int, list[str]]]] | None,
    p: int,
    *,
    max_path_len: int = 32,
    max_paths: int = 512,
) -> Algebra:
    """Quotient of the path algebra kQ by the ideal generated by relations.

    A relation is a linear combination of parallel paths, each of length at
    least two, given as (coefficient, [arrow names...]) terms.  Relations with
    one nonzero term (monomial relations) prune the path enumeration: the
    basis paths are those containing none of them, and max_paths bounds their
    number.  The ideal of the remaining relations is then divided out of that
    algebra.  Quivers with oriented cycles accept monomial relations only,
    which covers truncations like loop^2 = 0; on them a basis path longer
    than max_path_len raises InfiniteDimensional.
    """
    relations = relations or []
    arrow_index = {a[0]: i for i, a in enumerate(quiver.arrows)}
    rel_paths: list[list[tuple[int, tuple[int, ...]]]] = []
    for rel in relations:
        terms: list[tuple[int, tuple[int, ...]]] = []
        ends: set[tuple[str, str]] = set()
        for coeff, names in rel:
            try:
                aidx = tuple(arrow_index[n] for n in names)
            except KeyError as exc:
                raise InputError(f"relation uses unknown arrow {exc.args[0]!r}") from None
            if len(aidx) < 2:
                raise InputError("relations must live in rad^2 (paths of length >= 2)")
            for u, v in zip(aidx, aidx[1:]):
                if quiver.arrows[u][2] != quiver.arrows[v][1]:
                    raise InputError(f"relation path {names} is not composable")
            ends.add((quiver.arrows[aidx[0]][1], quiver.arrows[aidx[-1]][2]))
            if coeff % p:
                terms.append((coeff % p, aidx))
        if len(ends) > 1:
            raise InputError("relation mixes non-parallel paths")
        if terms:
            rel_paths.append(terms)

    multi = [terms for terms in rel_paths if len(terms) > 1]
    if multi and not quiver.is_acyclic():
        raise InputError(
            "non-monomial relations on a quiver with oriented cycles are not supported"
        )
    monomial = [terms[0][1] for terms in rel_paths if len(terms) == 1]
    a, index = _path_algebra(quiver, monomial, p, max_path_len, max_paths)
    if not multi:
        return a
    rows = np.zeros((len(multi), a.dim), dtype=np.int64)
    for r, terms in enumerate(multi):
        for coeff, aidx in terms:
            if aidx in index:  # a term through a monomial relation is already zero
                rows[r, index[aidx]] = (rows[r, index[aidx]] + coeff) % p
    return _quotient(a, _two_sided_ideal(a, rows), range(a.nv), quiver)[0]


def _path_algebra(
    quiver: Quiver,
    monomial: list[tuple[int, ...]],
    p: int,
    max_path_len: int,
    max_paths: int,
) -> tuple[Algebra, dict]:
    """kQ modulo monomial relations, and the basis index of each basis path.

    The basis is the vertices, then the paths containing no relation ordered
    by (length, arrows).  A product of two basis paths is their concatenation
    when that is a basis path, and zero otherwise.
    """
    paths: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [(i,) for i in range(len(quiver.arrows))]
    length = 1
    while frontier:
        if length > max_path_len and not quiver.is_acyclic():
            long_path = frontier[0]
            seen_at: dict[str, int] = {}
            cycle = None
            verts = [quiver.arrows[long_path[0]][1]] + [quiver.arrows[a][2] for a in long_path]
            for pos, v in enumerate(verts):
                if v in seen_at:
                    cand = [quiver.arrows[a][0] for a in long_path[seen_at[v] : pos]]
                    if cycle is None or len(cand) < len(cycle):
                        cycle = cand
                seen_at.setdefault(v, pos)
            raise InfiniteDimensional(cycle or [quiver.arrows[long_path[0]][0]], max_path_len)
        paths.extend(frontier)
        if len(paths) > max_paths:
            raise BudgetExceeded("too many paths in the quiver", needed=len(paths), limit=max_paths)
        nxt = []
        for path in frontier:
            end = quiver.arrows[path[-1]][2]
            for j, (_, s, _) in enumerate(quiver.arrows):
                w = path + (j,)
                # path is a basis path, so a relation inside w ends at its last arrow
                if s == end and not any(w[-len(f) :] == f for f in monomial):
                    nxt.append(w)
        frontier = nxt
        length += 1

    basis: list[tuple[int, ...] | str] = list(quiver.vertices) + sorted(
        paths, key=lambda w: (len(w), w)
    )
    index = {q: i for i, q in enumerate(basis)}
    d = len(basis)
    vlabels = list(quiver.vertices)
    vindex = {v: k for k, v in enumerate(vlabels)}

    def path_src(q) -> str:
        return q if isinstance(q, str) else quiver.arrows[q[0]][1]

    def path_tgt(q) -> str:
        return q if isinstance(q, str) else quiver.arrows[q[-1]][2]

    mult = np.zeros((d, d, d), dtype=np.int64)
    for i, qi in enumerate(basis):
        for j, qj in enumerate(basis):
            if path_tgt(qi) != path_src(qj):
                continue
            if isinstance(qi, str):
                k = j
            elif isinstance(qj, str):
                k = i
            else:
                k = index.get(qi + qj)  # every path without a relation is in the basis
            if k is not None:
                mult[i, j, k] = 1

    labels = [_path_label(quiver, q) for q in basis]
    src = [vindex[path_src(q)] for q in basis]
    tgt = [vindex[path_tgt(q)] for q in basis]
    return Algebra(p, vlabels, labels, src, tgt, mult, quiver=quiver), index


def point_algebra(p: int, label: str = "1") -> Algebra:
    return algebra_from_quiver(Quiver((label,), ()), None, p)


def linear_quiver(labels: list[str]) -> Quiver:
    arrows = tuple(
        (f"a{labels[i]}{labels[i + 1]}", labels[i], labels[i + 1])
        for i in range(len(labels) - 1)
    )
    return Quiver(tuple(labels), arrows)


# ---------------------------------------------------------------------------
# corner algebra eAe


@dataclass(frozen=True)
class CornerData:
    index_map: tuple[int, ...]  # new basis index -> old basis index
    vertex_map: tuple[int, ...]  # new vertex -> old vertex


def _reindexed(
    a: Algebra, chosen: list[int], projection: np.ndarray, keep_vertices, quiver: Quiver | None = None
) -> Algebra:
    """The algebra on the chosen basis elements of a, the kept vertices first,
    whose products are a's read through projection, an (a.dim, len(chosen))
    matrix that is the identity on the chosen elements."""
    vertex = {old: new for new, old in enumerate(keep_vertices)}
    return Algebra(
        a.p,
        [a.vertex_labels[v] for v in keep_vertices],
        [a.labels[i] for i in chosen],
        [vertex[a.src[i]] for i in chosen],
        [vertex[a.tgt[i]] for i in chosen],
        a.mult[np.ix_(chosen, chosen)] @ projection % a.p,
        quiver=quiver,
    )


def corner_algebra(a: Algebra, e: IdempotentSpec) -> tuple[Algebra, CornerData]:
    """eAe with basis {e b e != 0}: the basis elements with both ends in e."""
    if not e.algebra.same_as(a):
        raise InputError("idempotent belongs to a different algebra")
    inside = set(e.vertices)
    keep = [i for i in range(a.dim) if a.src[i] in inside and a.tgt[i] in inside]
    # eAe is closed under products, so selecting its coordinates is exact
    corner = _reindexed(a, keep, ff.eye(a.dim)[:, keep], e.vertices)
    return corner, CornerData(tuple(keep), e.vertices)


# ---------------------------------------------------------------------------
# quotient A / AeA


@dataclass(frozen=True)
class QuotientData:
    rep: tuple[int, ...]          # new basis index -> representative old index
    vertex_map: tuple[int, ...]   # new vertex -> old vertex
    projection: np.ndarray        # (old_dim, new_dim): class coords = vec @ projection
    ideal_rows: np.ndarray        # row basis of AeA inside A


def _two_sided_ideal(a: Algebra, rows: np.ndarray) -> np.ndarray:
    """RREF row basis of the ideal A r A = span{b_i r b_j} over the given rows r."""
    left = np.einsum("ijk,rj->rik", a.mult, rows) % a.p  # b_i * r
    prods = (np.einsum("rik,kjl->rijl", left, a.mult) % a.p).reshape(-1, a.dim)
    return ff.row_space_basis(prods[prods.any(axis=1)], a.p)


def _quotient(
    a: Algebra, ideal: np.ndarray, keep_vertices, quiver: Quiver | None = None
) -> tuple[Algebra, QuotientData]:
    """A / I for the two-sided ideal I with the given row basis.

    The basis is the kept vertices, then the non-vertex basis elements of A
    that are independent modulo I and the earlier ones.
    """
    keep_vertices = list(keep_vertices)
    chosen, projection = ff.complement(ideal, keep_vertices + list(range(a.nv, a.dim)), a.p)
    if ideal.shape[0] + len(chosen) != a.dim or chosen[: len(keep_vertices)] != keep_vertices:
        raise InputError("quotient basis selection failed (non-homogeneous ideal?)")
    quot = _reindexed(a, chosen, projection, keep_vertices, quiver)
    return quot, QuotientData(tuple(chosen), tuple(keep_vertices), projection, ideal)


def quotient_by_idempotent_ideal(a: Algebra, e: IdempotentSpec) -> tuple[Algebra, QuotientData]:
    if not e.algebra.same_as(a):
        raise InputError("idempotent belongs to a different algebra")
    return _quotient(a, _two_sided_ideal(a, ff.eye(a.dim)[list(e.vertices)]), e.complement)


# ---------------------------------------------------------------------------
# triangular matrix algebra [[B, 0], [M, C]]


@dataclass
class Bimodule:
    """C-B-bimodule given by action matrices on a chosen basis.

    Column-operator convention: c . m_j = sum_i left[c][i, j] m_i and
    m_j . b = sum_i right[b][i, j] m_i.  left must be an algebra map of C,
    right an antihomomorphism of B, and the two must commute.
    """

    dim: int
    left: dict[int, np.ndarray] = field(default_factory=dict)   # C basis idx -> (dim, dim)
    right: dict[int, np.ndarray] = field(default_factory=dict)  # B basis idx -> (dim, dim)
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            self.labels = tuple(f"m{i}" for i in range(self.dim))


def validate_bimodule(b: Algebra, c: Algebra, m: Bimodule) -> None:
    p = b.p
    if c.p != p:
        raise InputError("B and C must share the characteristic")
    if m.dim == 0:
        return
    for idx in range(c.dim):
        if idx not in m.left or m.left[idx].shape != (m.dim, m.dim):
            raise InputError(f"bimodule misses a left action matrix for {c.labels[idx]}")
    for idx in range(b.dim):
        if idx not in m.right or m.right[idx].shape != (m.dim, m.dim):
            raise InputError(f"bimodule misses a right action matrix for {b.labels[idx]}")
    ident = ff.eye(m.dim)
    lsum = sum(m.left[v] for v in range(c.nv)) % p
    rsum = sum(m.right[v] for v in range(b.nv)) % p
    if not np.array_equal(lsum, ident) or not np.array_equal(rsum, ident):
        raise InputError("bimodule actions are not unital")
    left = np.stack([m.left[k] for k in range(c.dim)])
    right = np.stack([m.right[k] for k in range(b.dim)])
    # left(c_i c_j) = left(c_i) left(c_j), right(b_i b_j) = right(b_j) right(b_i)
    # and left(c_i) right(b_j) = right(b_j) left(c_i), for every pair (i, j)
    for want, got, triple in (
        (np.einsum("ijk,kab->ijab", c.mult, left), np.einsum("iab,jbc->ijac", left, left),
         lambda i, j: f"({c.labels[i]}, {c.labels[j]}, left action)"),
        (np.einsum("ijk,kab->ijab", b.mult, right), np.einsum("jab,ibc->ijac", right, right),
         lambda i, j: f"(right action, {b.labels[i]}, {b.labels[j]})"),
        (np.einsum("iab,jbc->ijac", left, right), np.einsum("jab,ibc->ijac", right, left),
         lambda i, j: f"({c.labels[i]}, m, {b.labels[j]})"),
    ):
        bad = np.argwhere(((want - got) % p).any(axis=(2, 3)))
        if bad.size:
            raise InputError(f"bimodule axioms violated on triple {triple(*bad[0])}")


def _homogenize_bimodule(b: Algebra, c: Algebra, m: Bimodule) -> tuple[Bimodule, list[tuple[int, int]]]:
    """Change basis so every bimodule basis vector sits in one (C-vertex, B-vertex) block.

    Returns the transformed bimodule and the (source C-vertex, target B-vertex)
    of each new basis vector.
    """
    p = b.p
    if m.dim == 0:
        return m, []
    cols = []
    ends = []
    for w in range(c.nv):
        for v in range(b.nv):
            proj = ff.mul(m.left[w], m.right[v], p)
            img = ff.row_space_basis(proj.T, p).T
            for k in range(img.shape[1]):
                cols.append(img[:, k : k + 1])
                ends.append((w, v))
    if len(cols) != m.dim:
        raise InputError("bimodule vertex projectors do not decompose the space")
    t = np.concatenate(cols, axis=1)
    tinv = ff.solve(t, ff.eye(m.dim), p)
    if tinv is None:
        raise InputError("bimodule vertex projectors do not decompose the space")
    new_left = {k: ff.mul(ff.mul(tinv, mat, p), t, p) for k, mat in m.left.items()}
    new_right = {k: ff.mul(ff.mul(tinv, mat, p), t, p) for k, mat in m.right.items()}
    return Bimodule(m.dim, new_left, new_right, m.labels), ends


@dataclass(frozen=True)
class TriangularData:
    e: IdempotentSpec             # canonical idempotent covering C's vertices
    b_indices: tuple[int, ...]    # A basis indices of the B part
    m_indices: tuple[int, ...]
    c_indices: tuple[int, ...]


def triangular_matrix_algebra(b: Algebra, c: Algebra, m: Bimodule) -> tuple[Algebra, TriangularData]:
    """A = [[B, 0], [M, C]] with the canonical idempotent over C's corner.

    Basis: B's vertices, C's vertices, B's radical part, M, C's radical part.
    M sits in the blocks (C-vertex -> B-vertex); the corner at the returned
    idempotent recovers C, the quotient by its ideal recovers B.
    """
    validate_bimodule(b, c, m)
    mhom, ends = _homogenize_bimodule(b, c, m)
    nvb, nv = b.nv, b.nv + c.nv
    vlabels = list(b.vertex_labels) + list(c.vertex_labels)
    if len(set(vlabels)) != nv:
        raise InputError("B and C vertex labels must be disjoint")
    # the new basis is B's vertices, C's vertices, B's radical, M, C's radical,
    # listed by position k in the concatenated basis B, M, C
    bm = b.dim + m.dim
    order = np.r_[0:nvb, bm : bm + c.nv, nvb:bm, bm + c.nv : bm + c.dim]
    b_idx, m_idx, c_idx = np.split(np.argsort(order), [b.dim, bm])
    labels = [*b.labels, *mhom.labels, *c.labels]
    src = [*b.src, *(nvb + w for w, _ in ends), *(nvb + s for s in c.src)]
    tgt = [*b.tgt, *(v for _, v in ends), *(nvb + t for t in c.tgt)]
    mult = np.zeros((len(order),) * 3, dtype=np.int64)
    mult[np.ix_(b_idx, b_idx, b_idx)] = b.mult
    mult[np.ix_(c_idx, c_idx, c_idx)] = c.mult
    if m.dim:
        # c_i . m_j = sum_k left[i][k, j] m_k and m_j . b_i = sum_k right[i][k, j] m_k
        left = np.stack([mhom.left[i] for i in range(c.dim)])
        right = np.stack([mhom.right[i] for i in range(b.dim)])
        mult[np.ix_(c_idx, m_idx, m_idx)] = left.transpose(0, 2, 1)
        mult[np.ix_(m_idx, b_idx, m_idx)] = right.transpose(2, 0, 1)

    alg = Algebra(b.p, vlabels, [labels[k] for k in order], [src[k] for k in order],
                  [tgt[k] for k in order], mult)
    e = IdempotentSpec(alg, tuple(range(nvb, nv)))
    data = TriangularData(e, *(tuple(int(i) for i in idx) for idx in (b_idx, m_idx, c_idx)))
    return alg, data


def canonical_bimodule_for_triangular(b: Algebra, c: Algebra, generators: dict[str, str], p: int) -> Bimodule:
    """Bimodule freely generated over B by one generator per (C-vertex -> B-vertex) pair.

    generators maps a C vertex label to a B vertex label; the resulting
    bimodule is  ⊕ e_v B  (right projectives), with C acting through its
    vertices.  This is the bimodule that glues path algebras along new arrows
    from C's vertices into B's quiver.
    """
    slots: list[tuple[int, int, int]] = []  # (C vertex, B vertex of generator, B basis idx)
    for cv_label, bv_label in sorted(generators.items()):
        cv = list(c.vertex_labels).index(cv_label)
        bv = list(b.vertex_labels).index(bv_label)
        for i in range(b.dim):
            if b.src[i] == bv:
                slots.append((cv, bv, i))
    dim = len(slots)
    left = {k: np.zeros((dim, dim), dtype=np.int64) for k in range(c.dim)}
    right = {k: np.zeros((dim, dim), dtype=np.int64) for k in range(b.dim)}
    # C acts through its vertices (radical of C acts by zero on this free construction)
    for j, (cv, _, _) in enumerate(slots):
        left[cv][j, j] = 1
    for bidx in range(b.dim):
        for j, (cv, bv, i) in enumerate(slots):
            prod = b.mult[i, bidx]
            for t in np.nonzero(prod)[0]:
                jt = slots.index((cv, bv, int(t)))
                right[bidx][jt, j] = prod[t]
    return Bimodule(dim, left, right)


# ---------------------------------------------------------------------------
# isomorphism of small basic algebras


ISOMORPHISM_CANDIDATES = 200_000  # arrow-image tuples one search may try


def find_algebra_isomorphism(a1: Algebra, a2: Algebra) -> np.ndarray | None:
    """Search for an algebra isomorphism a1 -> a2, returned as a matrix.

    The matrix F (dim x dim) sends coefficient row vectors of a1 to those of
    a2.  The search fixes vertex idempotents to vertex idempotents (any two
    complete sets of primitive orthogonal idempotents are conjugate, so this
    loses no generality for existence) and enumerates arrow images block-wise.
    """
    if a1.p != a2.p or a1.dim != a2.dim or a1.nv != a2.nv:
        return None
    p = a1.p
    pres = a1.presentation
    arrows = pres.arrows
    block_elems: dict[tuple[int, int], list[int]] = {}
    for i in range(a2.nv, a2.dim):
        block_elems.setdefault((a2.src[i], a2.tgt[i]), []).append(i)

    for perm in itertools.permutations(range(a1.nv)):
        shapes = []
        ok = True
        for a in arrows:
            blk = block_elems.get((perm[a1.src[a]], perm[a1.tgt[a]]), [])
            if not blk:
                ok = False
                break
            shapes.append(blk)
        if not ok:
            continue
        total = 1
        for blk in shapes:
            total *= p ** len(blk)
        if total > ISOMORPHISM_CANDIDATES:
            raise BudgetExceeded("algebra isomorphism search too large", needed=total,
                                 limit=ISOMORPHISM_CANDIDATES)
        for combo in itertools.product(*(itertools.product(range(p), repeat=len(blk)) for blk in shapes)):
            images = {}
            for a, blk, coeffs in zip(arrows, shapes, combo):
                vec = np.zeros(a2.dim, dtype=np.int64)
                for idx, cf in zip(blk, coeffs):
                    vec[idx] = cf
                images[a] = vec
            f = np.zeros((a1.dim, a1.dim), dtype=np.int64)
            for v in range(a1.nv):
                f[v, perm[v]] = 1
            good = True
            for i in range(a1.nv, a1.dim):
                acc = np.zeros(a1.dim, dtype=np.int64)
                for coeff, wi in pres.expressions[i]:
                    word = pres.words[wi]
                    val = images[word[0]]
                    for a in word[1:]:
                        val = a2.product_vec(val, images[a])
                    acc = (acc + coeff * val) % p
                f[i] = acc
            if ff.rank(f, p) != a1.dim:
                continue
            for i in range(a1.dim):
                lhs = (a1.mult[i] @ f) % p  # image of b_i * b_j for all j
                rhs = np.array([a2.product_vec(f[i], f[j]) for j in range(a1.dim)])
                if not np.array_equal(lhs, rhs % p):
                    good = False
                    break
            if good:
                return f
    return None
