"""Finite-dimensional algebras as structure-constant tables over F_p.

An Algebra is a basis with multiplication table plus a complete set of
orthogonal vertex idempotents.  The invariants maintained by every
constructor:

  * basis[0:nv] are the vertex idempotents, one per vertex;
  * every basis element b is homogeneous: e_src(b) * b * e_tgt(b) = b
    (paths are written source-on-the-left, composing left to right);
  * the non-vertex basis elements span the Jacobson radical, which is
    nilpotent.

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
        relations_monomial: bool | None = None,
        check: bool = True,
    ):
        self.p = ff.check_prime(p)
        self.vertex_labels = tuple(vertex_labels)
        self.labels = tuple(labels)
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.mult = mult.astype(np.int64) % p
        self.quiver = quiver
        self.relations_monomial = relations_monomial
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

    def product(self, i: int, j: int) -> np.ndarray:
        return self.mult[i, j]

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
        # orthogonal idempotents, unit decomposition and homogeneity
        for i in range(d):
            s, t = self.src[i], self.tgt[i]
            for v in range(self.nv):
                left = self.mult[v, i]
                want = np.zeros(d, dtype=np.int64)
                if v == s:
                    want[i] = 1
                if not np.array_equal(left, want):
                    raise InputError(f"e_{self.vertex_labels[v]} * {self.labels[i]} is not homogeneous")
                right = self.mult[i, v]
                want = np.zeros(d, dtype=np.int64)
                if v == t:
                    want[i] = 1
                if not np.array_equal(right, want):
                    raise InputError(f"{self.labels[i]} * e_{self.vertex_labels[v]} is not homogeneous")
        if d:
            lhs = np.einsum("ijm,mkl->ijkl", self.mult, self.mult) % p
            rhs = np.einsum("jkm,iml->ijkl", self.mult, self.mult) % p
            if not np.array_equal(lhs, rhs):
                bad = np.argwhere(lhs != rhs)[0]
                i, j, k = (int(x) for x in bad[:3])
                raise InputError(
                    "associativity fails on basis triple "
                    f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                )
        # products land in the right block and vanish off-block
        for i in range(d):
            for j in range(d):
                vec = self.mult[i, j]
                if self.tgt[i] != self.src[j]:
                    if vec.any():
                        raise InputError("non-composable product is nonzero")
                    continue
                for k in np.nonzero(vec)[0]:
                    if self.src[int(k)] != self.src[i] or self.tgt[int(k)] != self.tgt[j]:
                        raise InputError("product leaves its (source, target) block")
        # the non-vertex part must be a nilpotent ideal (radical invariant)
        if self._radical_powers()[-1].shape[0] != 0:
            raise InputError("non-vertex basis elements do not span a nilpotent ideal")

    def _radical_powers(self) -> list[np.ndarray]:
        """Row bases of rad, rad^2, ... down to the zero space (inclusive)."""
        d = self.dim
        radical = ff.eye(d)[self.nv :]
        powers = [radical]
        while powers[-1].shape[0]:
            prev = powers[-1]
            prods = []
            for row in prev:
                for j in range(self.nv, d):
                    prods.append(np.einsum("i,ik->k", row, self.mult[:, j]) % self.p)
            nxt = ff.row_space_basis(np.array(prods).reshape(-1, d), self.p) if prods else ff.zeros(0, d)
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
        arrows: list[int] = []
        span = rad2
        for i in range(self.nv, d):
            cand = ff.eye(d)[i : i + 1]
            grown = ff.subspace_sum(span, cand, p)
            if grown.shape[0] > span.shape[0]:
                arrows.append(i)
                span = grown
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
                coords = ff.express_in_rows(ff.eye(d)[i : i + 1], emat, p)
                if coords is None:
                    raise InputError(f"basis element {self.labels[i]} not generated by arrows")
                expressions[i] = tuple(
                    (int(c), wis[k]) for k, c in enumerate(coords[0]) if c
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
    def is_degenerate(self) -> bool:
        return len(self.vertices) == 0 or len(self.vertices) == self.algebra.nv

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.vertices)
        return tuple(v for v in range(self.algebra.nv) if v not in inside)

    def labels(self) -> list[str]:
        return [self.algebra.vertex_labels[v] for v in self.vertices]


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
    least two, given as (coefficient, [arrow names...]) terms.  Acyclic
    quivers accept arbitrary such relations; quivers with oriented cycles
    accept monomial relations only (single-path relations), which covers
    truncations like loop^2 = 0.
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

    if quiver.is_acyclic():
        return _acyclic_quotient(quiver, rel_paths, p, max_paths)
    if any(len(terms) != 1 for terms in rel_paths):
        raise InputError(
            "non-monomial relations on a quiver with oriented cycles are not supported"
        )
    return _monomial_quotient(
        quiver, [terms[0][1] for terms in rel_paths], p, max_path_len, max_paths
    )


def _enumerate_paths_acyclic(quiver: Quiver, max_paths: int) -> list[tuple[int, ...]]:
    paths: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [(i,) for i in range(len(quiver.arrows))]
    while frontier:
        paths.extend(frontier)
        if len(paths) > max_paths:
            raise BudgetExceeded("too many paths in the quiver", needed=len(paths), limit=max_paths)
        nxt = []
        for path in frontier:
            end = quiver.arrows[path[-1]][2]
            for j, (_, s, _) in enumerate(quiver.arrows):
                if s == end:
                    nxt.append(path + (j,))
        frontier = nxt
    paths.sort(key=lambda w: (len(w), w))
    return paths


def _acyclic_quotient(
    quiver: Quiver,
    rel_paths: list[list[tuple[int, tuple[int, ...]]]],
    p: int,
    max_paths: int,
) -> Algebra:
    paths: list[tuple[int, ...] | str] = list(quiver.vertices)
    paths += _enumerate_paths_acyclic(quiver, max_paths)
    index = {q: i for i, q in enumerate(paths)}
    n = len(paths)

    def path_src(q) -> str:
        return q if isinstance(q, str) else quiver.arrows[q[0]][1]

    def path_tgt(q) -> str:
        return q if isinstance(q, str) else quiver.arrows[q[-1]][2]

    def concat(q1, q2) -> int | None:
        if path_tgt(q1) != path_src(q2):
            return None
        if isinstance(q1, str):
            return index[q2]
        if isinstance(q2, str):
            return index[q1]
        return index[q1 + q2]

    # ideal generated by the relations inside the full (finite) path algebra
    seed = []
    for terms in rel_paths:
        vec = np.zeros(n, dtype=np.int64)
        for coeff, aidx in terms:
            vec[index[aidx]] = (vec[index[aidx]] + coeff) % p
        seed.append(vec)
    ideal = ff.row_space_basis(np.array(seed).reshape(-1, n), p) if seed else ff.zeros(0, n)
    changed = True
    while changed:
        changed = False
        prods = [ideal]
        for row in ideal:
            support = np.nonzero(row)[0]
            for qi, q in enumerate(paths):
                left = np.zeros(n, dtype=np.int64)
                right = np.zeros(n, dtype=np.int64)
                for k in support:
                    ci = concat(q, paths[int(k)])
                    if ci is not None:
                        left[ci] = (left[ci] + row[k]) % p
                    ci = concat(paths[int(k)], q)
                    if ci is not None:
                        right[ci] = (right[ci] + row[k]) % p
                prods.append(left.reshape(1, -1))
                prods.append(right.reshape(1, -1))
        grown = ff.row_space_basis(np.concatenate(prods), p)
        if grown.shape[0] > ideal.shape[0]:
            ideal = grown
            changed = True

    # complement basis: trivial paths first, then shorter paths first
    chosen: list[int] = []
    span = ideal
    for i, q in enumerate(paths):
        cand = ff.eye(n)[i : i + 1]
        grown = ff.subspace_sum(span, cand, p)
        if grown.shape[0] > span.shape[0]:
            chosen.append(i)
            span = grown
    for v in range(len(quiver.vertices)):
        if v not in chosen[: len(quiver.vertices)]:
            raise InputError("relations are not admissible: a vertex idempotent died")

    full = np.concatenate([ideal, ff.eye(n)[chosen]]) if ideal.shape[0] else ff.eye(n)[chosen]
    finv = ff.solve(full, ff.eye(n), p)
    assert finv is not None
    reduce_cols = finv[:, ideal.shape[0] :]  # class coords = vec @ reduce_cols

    d = len(chosen)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for i, qi in enumerate(chosen):
        for j, qj in enumerate(chosen):
            ci = concat(paths[qi], paths[qj])
            if ci is None:
                continue
            vec = np.zeros(n, dtype=np.int64)
            vec[ci] = 1
            mult[i, j] = (vec @ reduce_cols) % p

    vlabels = list(quiver.vertices)
    vindex = {v: k for k, v in enumerate(vlabels)}
    labels = [_path_label(quiver, paths[qi]) for qi in chosen]
    src = [vindex[path_src(paths[qi])] for qi in chosen]
    tgt = [vindex[path_tgt(paths[qi])] for qi in chosen]
    return Algebra(p, vlabels, labels, src, tgt, mult, quiver=quiver,
                   relations_monomial=not rel_paths)


def _monomial_quotient(
    quiver: Quiver,
    forbidden: list[tuple[int, ...]],
    p: int,
    max_path_len: int,
    max_paths: int,
) -> Algebra:
    forbidden_set = set(forbidden)

    def clean(path: tuple[int, ...]) -> bool:
        for f in forbidden_set:
            lf = len(f)
            if lf <= len(path) and any(
                path[k : k + lf] == f for k in range(len(path) - lf + 1)
            ):
                return False
        return True

    survivors: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [
        (i,) for i in range(len(quiver.arrows)) if clean((i,))
    ]
    length = 1
    while frontier:
        if length > max_path_len:
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
        survivors.extend(frontier)
        if len(survivors) > max_paths:
            raise BudgetExceeded("too many surviving paths", needed=len(survivors), limit=max_paths)
        nxt = []
        for path in frontier:
            end = quiver.arrows[path[-1]][2]
            for j, (_, s, _) in enumerate(quiver.arrows):
                if s == end and clean(path + (j,)):
                    nxt.append(path + (j,))
        frontier = nxt
        length += 1

    basis: list[tuple[int, ...] | str] = list(quiver.vertices) + sorted(
        survivors, key=lambda w: (len(w), w)
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
                prod: tuple[int, ...] | str = qj
            elif isinstance(qj, str):
                prod = qi
            else:
                prod = qi + qj
                if not clean(prod):
                    continue
            mult[i, j, index[prod]] = 1

    labels = [_path_label(quiver, q) for q in basis]
    src = [vindex[path_src(q)] for q in basis]
    tgt = [vindex[path_tgt(q)] for q in basis]
    return Algebra(p, vlabels, labels, src, tgt, mult, quiver=quiver, relations_monomial=True)


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


def corner_algebra(a: Algebra, e: IdempotentSpec) -> tuple[Algebra, CornerData]:
    """eAe with basis {e b e != 0}: the basis elements with both ends in e."""
    if not e.algebra.same_as(a):
        raise InputError("idempotent belongs to a different algebra")
    inside = set(e.vertices)
    keep_vertices = [v for v in range(a.nv) if v in inside]
    keep = [i for i in range(a.dim) if a.src[i] in inside and a.tgt[i] in inside]
    old_to_new = {old: new for new, old in enumerate(keep)}
    vmap_old_new = {old: new for new, old in enumerate(keep_vertices)}
    d = len(keep)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for i, oi in enumerate(keep):
        for j, oj in enumerate(keep):
            vec = a.mult[oi, oj]
            for k in np.nonzero(vec)[0]:
                mult[i, j, old_to_new[int(k)]] = vec[k]
    corner = Algebra(
        a.p,
        [a.vertex_labels[v] for v in keep_vertices],
        [a.labels[i] for i in keep],
        [vmap_old_new[a.src[i]] for i in keep],
        [vmap_old_new[a.tgt[i]] for i in keep],
        mult,
    )
    return corner, CornerData(tuple(keep), tuple(keep_vertices))


# ---------------------------------------------------------------------------
# quotient A / AeA


@dataclass(frozen=True)
class QuotientData:
    rep: tuple[int, ...]          # new basis index -> representative old index
    vertex_map: tuple[int, ...]   # new vertex -> old vertex
    projection: np.ndarray        # (old_dim, new_dim): class coords = vec @ projection
    ideal_rows: np.ndarray        # row basis of AeA inside A


def ideal_of_idempotent(a: Algebra, e: IdempotentSpec) -> np.ndarray:
    """Row basis of the two-sided ideal AeA."""
    vecs = []
    for v in e.vertices:
        for i in range(a.dim):
            left = a.mult[i, v]  # b_i * e_v
            for k in np.nonzero(left)[0]:
                for j in range(a.dim):
                    prod = a.mult[int(k), j]
                    if prod.any():
                        vecs.append((left[k] * prod) % a.p)
    if not vecs:
        return ff.zeros(0, a.dim)
    return ff.row_space_basis(np.array(vecs), a.p)


def quotient_by_idempotent_ideal(a: Algebra, e: IdempotentSpec) -> tuple[Algebra, QuotientData]:
    if not e.algebra.same_as(a):
        raise InputError("idempotent belongs to a different algebra")
    ideal = ideal_of_idempotent(a, e)
    inside = set(e.vertices)
    new_vertices = [v for v in range(a.nv) if v not in inside]
    chosen: list[int] = []
    span = ideal
    order = new_vertices + [i for i in range(a.nv, a.dim)]
    for i in order:
        cand = ff.eye(a.dim)[i : i + 1]
        grown = ff.subspace_sum(span, cand, a.p)
        if grown.shape[0] > span.shape[0]:
            chosen.append(i)
            span = grown
    if span.shape[0] != a.dim or chosen[: len(new_vertices)] != new_vertices:
        raise InputError("quotient basis selection failed (non-homogeneous ideal?)")
    full = np.concatenate([ideal, ff.eye(a.dim)[chosen]]) if ideal.shape[0] else ff.eye(a.dim)[chosen]
    finv = ff.solve(full, ff.eye(a.dim), a.p)
    assert finv is not None
    projection = finv[:, ideal.shape[0] :]

    d = len(chosen)
    vmap_old_new = {old: new for new, old in enumerate(new_vertices)}
    mult = np.zeros((d, d, d), dtype=np.int64)
    for i, oi in enumerate(chosen):
        for j, oj in enumerate(chosen):
            mult[i, j] = (a.mult[oi, oj] @ projection) % a.p
    quot = Algebra(
        a.p,
        [a.vertex_labels[v] for v in new_vertices],
        [a.labels[i] for i in chosen],
        [vmap_old_new[a.src[i]] for i in chosen],
        [vmap_old_new[a.tgt[i]] for i in chosen],
        mult,
    )
    return quot, QuotientData(tuple(chosen), tuple(new_vertices), projection, ideal)


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


def _operator_of(action: dict[int, np.ndarray], vec: np.ndarray, dim: int, p: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.int64)
    for k in np.nonzero(vec)[0]:
        out = (out + vec[k] * action[int(k)]) % p
    return out


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
    for i in range(c.dim):
        for j in range(c.dim):
            want = _operator_of(m.left, c.mult[i, j], m.dim, p)
            got = ff.mul(m.left[i], m.left[j], p)
            if not np.array_equal(want, got):
                raise InputError(
                    f"bimodule axioms violated on triple ({c.labels[i]}, {c.labels[j]}, left action)"
                )
    for i in range(b.dim):
        for j in range(b.dim):
            want = _operator_of(m.right, b.mult[i, j], m.dim, p)
            got = ff.mul(m.right[j], m.right[i], p)
            if not np.array_equal(want, got):
                raise InputError(
                    f"bimodule axioms violated on triple (right action, {b.labels[i]}, {b.labels[j]})"
                )
    for i in range(c.dim):
        for j in range(b.dim):
            if not np.array_equal(
                ff.mul(m.left[i], m.right[j], p), ff.mul(m.right[j], m.left[i], p)
            ):
                raise InputError(
                    f"bimodule axioms violated on triple ({c.labels[i]}, m, {b.labels[j]})"
                )


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
            img = ff.image_basis(proj, p)
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
    p = b.p
    nvb, nvc = b.nv, c.nv
    nv = nvb + nvc
    d = b.dim + m.dim + c.dim

    def b_new(i: int) -> int:
        return i if i < nvb else nv + (i - nvb)

    def m_new(i: int) -> int:
        return nv + (b.dim - nvb) + i

    def c_new(i: int) -> int:
        return (nvb + i) if i < nvc else nv + (b.dim - nvb) + m.dim + (i - nvc)

    vlabels = list(b.vertex_labels) + list(c.vertex_labels)
    if len(set(vlabels)) != nv:
        raise InputError("B and C vertex labels must be disjoint")
    labels = [""] * d
    src = [0] * d
    tgt = [0] * d
    for i in range(b.dim):
        labels[b_new(i)] = b.labels[i]
        src[b_new(i)] = b.src[i]
        tgt[b_new(i)] = b.tgt[i]
    for i in range(c.dim):
        labels[c_new(i)] = c.labels[i]
        src[c_new(i)] = nvb + c.src[i]
        tgt[c_new(i)] = nvb + c.tgt[i]
    for i in range(m.dim):
        labels[m_new(i)] = mhom.labels[i]
        src[m_new(i)] = nvb + ends[i][0]
        tgt[m_new(i)] = ends[i][1]

    mult = np.zeros((d, d, d), dtype=np.int64)
    for i in range(b.dim):
        for j in range(b.dim):
            for k in np.nonzero(b.mult[i, j])[0]:
                mult[b_new(i), b_new(j), b_new(int(k))] = b.mult[i, j, k]
    for i in range(c.dim):
        for j in range(c.dim):
            for k in np.nonzero(c.mult[i, j])[0]:
                mult[c_new(i), c_new(j), c_new(int(k))] = c.mult[i, j, k]
    if m.dim:
        for i in range(c.dim):
            lmat = mhom.left[i]
            for j in range(m.dim):
                for k in np.nonzero(lmat[:, j])[0]:
                    mult[c_new(i), m_new(j), m_new(int(k))] = lmat[k, j]
        for i in range(b.dim):
            rmat = mhom.right[i]
            for j in range(m.dim):
                for k in np.nonzero(rmat[:, j])[0]:
                    mult[m_new(j), b_new(i), m_new(int(k))] = rmat[k, j]

    alg = Algebra(p, vlabels, labels, src, tgt, mult)
    e = IdempotentSpec(alg, tuple(range(nvb, nv)))
    data = TriangularData(
        e,
        tuple(b_new(i) for i in range(b.dim)),
        tuple(m_new(i) for i in range(m.dim)),
        tuple(c_new(i) for i in range(c.dim)),
    )
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


def find_algebra_isomorphism(
    a1: Algebra, a2: Algebra, *, max_candidates: int = 200_000
) -> np.ndarray | None:
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
        if total > max_candidates:
            raise BudgetExceeded("algebra isomorphism search too large", needed=total, limit=max_candidates)
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
