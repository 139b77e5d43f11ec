"""Slow reference implementations that the engine's fast paths are tested against.

Each function is the straightforward version a fast path in schurrec
replaced: numpy row reduction, with the kernel basis, coordinates,
identities and signatures read off numpy arrays (the oracles of the list
and XOR elimination in fields), the subspace helpers that grow a complement
one row at a time, take left kernels by transposing and find coordinates
with a linear solve (the oracles of fields.complement, fields.row_kernel and
fields.coordinates), the Hom system built from Kronecker products,
the word-by-word relation check, the exhaustive isomorphism scan, the
brute-force universe builder that runs them one action tuple at a time (the
oracle of the builder by extensions), the block-diagonal direct sum with its
inclusions and projections (the oracle of the sum as a split extension),
every tuple of vertex subspaces tested for closure under every basis element
and the walk that closes single vectors under the arrows and then joins
submodules pairwise (the two oracles of the submodule enumeration, which
adds one cyclic submodule at a time),
Ext^1 with its middle terms through a projective presentation and a pushout
(the oracle of the arrow cocycles), the short exact sequence of a cocycle's
block module with its inclusion and projection checked as maps (the oracle
of the middle terms that the extension-closure tables decompose directly),
the presentation of A/AeA by one e_v A per basis vector (the oracle of the
exactness certificate's sequence 0 -> AeA -> A -> A/AeA -> 0),
the summand audit that searches a filtration of every closure member (the
oracle of the census criterion sim(filt_closure(M)) = M), the torsion-free
classes read off the left Schur census (the oracle of the lattice walk),
and kQ/I as a fixpoint of the ideal among all paths of Q with AeA from
the products b_i e_v b_j (the oracles of the path enumeration that prunes
monomial relations and of the one quotient construction that serves both
kQ/I and A/AeA), the Krull-Schmidt decomposition that scans End for a splitting
idempotent before it looks a module up in the universe (the oracle of the
member test first), the submodule sequences of a member built afresh on
every call (the oracle of the per-universe sequence table), the Hom
profiles, kernel tables and brick verdicts from a fresh Hom space on every
call (the oracles of the universe's one Hom space per pair, of the kernel
table read off the submodule tables and of one brick verdict per member),
the canonical map theta: j_! N -> j_* N written out block by block
(the oracle of j_!* N read as the submodule (j_* N).eA), and the gluing
comprehension, the restriction and the theorem's edge-subset sweep on id
sets, member by member through Recollement.image_ids (the oracles of the
gluing layer's image masks).

It also holds the helpers that only tests call, so that src/ keeps none:
zero maps, End dimensions and the table of Hom dimensions, the full
structure-constant check of a module, kernels, cokernels and images,
submodule lists, the indecomposable projectives, and filtrations: explicit
chains with their validation, trivial ones, merges along a short exact
sequence and carries along an isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from schurrec import fields as ff
from schurrec.algebras import Algebra, IdempotentSpec, Quiver, _path_label
from schurrec.census import all_left_schur
from schurrec.errors import BudgetExceeded, InputError, UniverseExhausted
from schurrec.modules import (
    DEFAULT_THRESHOLDS,
    Ext1,
    HomSpace,
    IndecUniverse,
    Module,
    Morphism,
    ShortExactSequence,
    Thresholds,
    _extension,
    _splitting_endomorphism,
    _subspace_bases,
    decompose,
    direct_sum,
    hom_basis,
    is_brick,
    is_indecomposable,
    is_injective,
    is_isomorphic_to_indecomposable,
    is_isomorphism,
    is_split,
    is_surjective,
    projective_module,
    quotient_by_rows,
    regular_module,
    submodule_from_rows,
    submodule_rows,
)
from schurrec.recollements import LAW_ALIASES, NEEDS_EXACT
from schurrec.subcats import HomProfile, id_mask, is_left_schur, is_torsion_free, is_wide, mask_ids


def rref_numpy(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gaussian elimination with first-nonzero pivoting on numpy rows."""
    a = m.copy() % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * ff.inv_mod(a[r, c], p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_basis_numpy(m: np.ndarray, p: int) -> np.ndarray:
    """Right null space as columns, set entry by entry from numpy scalars."""
    cols = m.shape[1]
    r, pivots = rref_numpy(m, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    out = ff.zeros(cols, len(free))
    for k, f in enumerate(free):
        out[f, k] = 1
        for i, c in enumerate(pivots):
            out[c, k] = (-r[i, f]) % p
    return out


def coordinates_numpy(v: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray | None:
    """v read at the pivot columns of RREF rows by numpy indexing, then checked."""
    v = v % p
    x = v[:, (rows != 0).argmax(axis=1)] if rows.size else ff.zeros(v.shape[0], 0)
    return x if np.array_equal(ff.mul(x, rows, p), v) else None


def eye_numpy(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def signature_numpy(m: np.ndarray) -> tuple:
    return (m.shape, tuple(int(x) for x in m.ravel()))


def quotient_basis(sub: np.ndarray, ambient: np.ndarray, p: int) -> np.ndarray:
    """Rows of `ambient` completing `sub`, each kept if it grows the span so far."""
    current = ff.row_space_basis(sub, p)
    target = ff.rank(ambient, p)
    out_rows = []
    for i in range(ambient.shape[0]):
        cand = ambient[i : i + 1]
        grown = ff.row_space_basis(np.concatenate([current, cand]), p)
        if grown.shape[0] > current.shape[0]:
            out_rows.append(cand)
            current = grown
        if current.shape[0] == target:
            break
    if current.shape[0] != target:
        raise ValueError("sub is not contained in ambient")
    if not out_rows:
        return ff.zeros(0, ambient.shape[1])
    return np.concatenate(out_rows)


def row_kernel_by_transpose(m: np.ndarray, p: int) -> np.ndarray:
    """Canonical rows spanning {v : v @ m = 0}, from the column kernel of m^T."""
    return ff.row_space_basis(ff.kernel_basis(m.T, p).T, p)


def express_in_rows(v: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray | None:
    """Coordinates x with x @ basis = v by a linear solve, or None."""
    xt = ff.solve(basis.T, v.T, p)
    return None if xt is None else xt.T


def subspace_intersection(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of rowspace(u) ∩ rowspace(v) from the left kernel of [u ; -v]."""
    if u.shape[1] != v.shape[1]:
        raise ValueError("ambient dimensions differ")
    k = row_kernel_by_transpose(np.concatenate([u, (-v) % p]), p)  # rows (x | y), x@u = y@v
    return ff.row_space_basis(ff.mul(k[:, : u.shape[0]], u, p), p)


def kronecker_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.kron(a, b) % p


def hom_system_kron(m: Module, n: Module) -> np.ndarray:
    """Commuting-square system of Hom(m, n) as blocks act_M ⊗ I - I ⊗ act_N^T."""
    alg, p = m.algebra, m.p
    offsets = []
    total = 0
    for v in range(alg.nv):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    rows = []
    for a in alg.arrows:
        s, t = alg.src[a], alg.tgt[a]
        neq = m.dims[s] * n.dims[t]
        if neq == 0:
            continue
        block = np.zeros((neq, total), dtype=np.int64)
        if m.dims[t] and n.dims[t]:
            lhs = kronecker_product(m.act[a], ff.eye(n.dims[t]), p)
            block[:, offsets[t] : offsets[t] + m.dims[t] * n.dims[t]] = lhs
        if m.dims[s] and n.dims[s]:
            rhs = kronecker_product(ff.eye(m.dims[s]), n.act[a].T, p)
            block[:, offsets[s] : offsets[s] + m.dims[s] * n.dims[s]] = (
                block[:, offsets[s] : offsets[s] + m.dims[s] * n.dims[s]] - rhs
            ) % p
        rows.append(block)
    return np.concatenate(rows) if rows else ff.zeros(0, total)


def satisfies_relations_loop(algebra, arrow_mats: dict[int, np.ndarray]) -> bool:
    """Evaluate every relation on one arrow assignment, word by word."""
    pres, p = algebra.presentation, algebra.p
    memo: dict[tuple[int, ...], np.ndarray] = {}

    def wmat(w):
        if w not in memo:
            if len(w) == 1:
                memo[w] = arrow_mats[w[0]] % p
            else:
                memo[w] = ff.mul(wmat(w[:-1]), arrow_mats[w[-1]], p)
        return memo[w]

    for rel in pres.relations:
        acc = None
        for coeff, wi in rel:
            m = wmat(pres.words[wi])
            acc = (coeff * m) % p if acc is None else (acc + coeff * m) % p
        if acc is not None and acc.any():
            return False
    return True


def action_tuples(algebra, dims):
    """Every arrow assignment at dims, in itertools.product order."""
    arrows = list(algebra.arrows)
    shapes = [(dims[algebra.src[a]], dims[algebra.tgt[a]]) for a in arrows]
    cells = sum(r * c for r, c in shapes)
    for combo in itertools.product(range(algebra.p), repeat=cells):
        arrow_mats = {}
        off = 0
        for a, (r, c) in zip(arrows, shapes):
            arrow_mats[a] = np.array(combo[off : off + r * c], dtype=np.int64).reshape(r, c)
            off += r * c
        yield arrow_mats


def is_isomorphic_scan(m: Module, n: Module,
                       thresholds: Thresholds = DEFAULT_THRESHOLDS) -> bool:
    """Search the whole Hom space for an invertible intertwiner."""
    if m.is_zero and n.is_zero:
        return True
    if m.dims != n.dims:
        return False
    hom = HomSpace(m, n)
    if hom.dim == 0 or len(hom_basis(n, m)) != hom.dim:
        return False
    return any(is_isomorphism(f) for f in hom.elements(thresholds=thresholds))


def dim_vectors(nv: int, bound: int) -> list[tuple[int, ...]]:
    """Nonzero dimension vectors of total <= bound, in (total, lex) order."""
    vecs = [v for v in itertools.product(range(bound + 1), repeat=nv) if 0 < sum(v) <= bound]
    return sorted(vecs, key=lambda v: (sum(v), v))


def underlying_adjacency(algebra) -> list[set[int]]:
    """Undirected vertex adjacency through the arrow generators."""
    adj: list[set[int]] = [set() for _ in range(algebra.nv)]
    for a in algebra.arrows:
        s, t = algebra.src[a], algebra.tgt[a]
        adj[s].add(t)
        adj[t].add(s)
    return adj


def connected_support(dims: tuple[int, ...], adj: list[set[int]]) -> bool:
    support = [v for v, d in enumerate(dims) if d]
    if len(support) <= 1:
        return True
    seen = {support[0]}
    stack = [support[0]]
    inside = set(support)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == inside


def brute_force_per_tuple(algebra, bound: int,
                          thresholds: Thresholds = DEFAULT_THRESHOLDS) -> list[Module]:
    """Indecomposables up to bound, one action tuple at a time, deduplicated by scan."""
    adj = underlying_adjacency(algebra)
    accepted: list[Module] = []
    accepted_meta: list[tuple[tuple[int, ...], int]] = []
    total_states = 0
    for dims in dim_vectors(algebra.nv, bound):
        if not connected_support(dims, adj):
            continue
        cells = sum(dims[algebra.src[a]] * dims[algebra.tgt[a]] for a in algebra.arrows)
        total_states += algebra.p ** cells
        if total_states > thresholds.enumeration_states:
            raise BudgetExceeded("brute-force enumeration too large",
                                 needed=total_states, limit=thresholds.enumeration_states)
        for arrow_mats in action_tuples(algebra, dims):
            if not satisfies_relations_loop(algebra, arrow_mats):
                continue
            cand = Module(algebra, dims, arrow_mats, check=False)
            if not is_indecomposable(cand, thresholds):
                continue
            cand_end = end_dim(cand)
            duplicate = False
            for rep, (rdims, rend) in zip(accepted, accepted_meta):
                if rdims != dims or rend != cand_end:
                    continue
                if len(hom_basis(cand, rep)) != rend or len(hom_basis(rep, cand)) != rend:
                    continue
                if is_isomorphic_scan(rep, cand, thresholds):
                    duplicate = True
                    break
            if not duplicate:
                accepted.append(cand)
                accepted_meta.append((dims, cand_end))
    return accepted


def zero_map(src: Module, dst: Module) -> Morphism:
    return Morphism(src, dst, tuple(ff.zeros(a, b) for a, b in zip(src.dims, dst.dims)))


def end_dim(m: Module) -> int:
    return len(hom_basis(m, m))


def hom_dims(u) -> np.ndarray:
    """dim Hom(M_i, M_j) for every ordered pair of universe members."""
    return np.array([[u.hom_space(i, j).dim for j in u.ids] for i in u.ids],
                    dtype=np.int64).reshape(len(u), len(u))


def verify_module(m: Module) -> bool:
    """Full structure-constant check: every basis product acts as the product
    of the actions."""
    a = m.algebra
    for i in range(a.dim):
        for j in range(a.dim):
            if a.tgt[i] != a.src[j]:
                continue
            lhs = ff.mul(m.act_block(i), m.act_block(j), m.p)
            rhs = ff.zeros(m.dims[a.src[i]], m.dims[a.tgt[j]])
            vec = a.mult[i, j]
            for k in np.nonzero(vec)[0]:
                rhs = (rhs + vec[k] * m.act_block(int(k))) % m.p
            if not np.array_equal(lhs, rhs):
                return False
    return True


def kernel(f: Morphism) -> tuple[Module, Morphism]:
    """Vertex-wise kernel with induced action and canonical inclusion."""
    return submodule_from_rows(f.src, [ff.row_kernel(mat, f.p) for mat in f.mats])


def cokernel(f: Morphism) -> tuple[Module, Morphism]:
    """Quotient of the target by the image, with its projection."""
    parts = quotient_by_rows(f.dst, [ff.row_space_basis(mat, f.p) for mat in f.mats])
    return parts.module, parts.projection


def image(f: Morphism) -> tuple[Module, Morphism]:
    """Image submodule of the target with canonical inclusion."""
    rows = [ff.row_space_basis(f.mats[v], f.p) for v in range(f.src.algebra.nv)]
    return submodule_from_rows(f.dst, rows)


def submodules(m: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """All submodules with canonical inclusions."""
    return [submodule_from_rows(m, list(rows)) for rows in submodule_rows(m, thresholds)]


def indecomposable_projectives(algebra, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    out = []
    for v in range(algebra.nv):
        pv = projective_module(algebra, v)
        if not is_indecomposable(pv, thresholds):
            raise ValueError("projective e_v A decomposes; vertex idempotents not primitive")
        out.append(pv)
    return out


def projective_presentation(z: Module) -> ShortExactSequence:
    """A surjection from projectives with its kernel: 0 -> Omega -> P0 -> z -> 0,
    one summand e_v A for each basis vector of z at v."""
    alg = z.algebra
    summands: list[Module] = []
    maps: list[list[np.ndarray]] = []  # per summand, per vertex
    for v in range(alg.nv):
        if z.dims[v] == 0:
            continue
        pv = projective_module(alg, v)
        by_vertex: dict[int, list[int]] = {}
        for i in range(alg.dim):
            if alg.src[i] == v:
                by_vertex.setdefault(alg.tgt[i], []).append(i)
        for r in range(z.dims[v]):
            mats = []
            for w in range(alg.nv):
                block = ff.zeros(pv.dims[w], z.dims[w])
                for rr, i in enumerate(by_vertex.get(w, [])):
                    block[rr] = z.act_block(i)[r]
                mats.append(block)
            summands.append(pv)
            maps.append(mats)
    if not summands:
        zero = Module.zero(alg)
        return ShortExactSequence(zero_map(zero, zero), zero_map(zero, z))
    p0 = direct_sum(summands)
    q = Morphism(p0, z, tuple(np.concatenate([m[v] for m in maps]) for v in range(alg.nv)))
    assert is_surjective(q), "projective presentation failed to be surjective"
    _, incl = kernel(q)
    return ShortExactSequence(incl, q)


def exactness_by_presentation(r) -> tuple[bool, bool]:
    """Whether the presentation of A/AeA by one e_v A per basis vector splits,
    and whether i^! keeps its epi surjective."""
    pres = projective_presentation(r.apply("i_star", regular_module(r.b_alg)))
    return is_split(pres), is_surjective(r.apply_to_morphism("i_shriek", pres.epi))


def ext1_by_presentation(z: Module, x: Module) -> tuple[ShortExactSequence, HomSpace]:
    """Ext^1(z, x) as coker(Hom(P0, x) -> Hom(Omega, x)) for 0 -> Omega -> P0 -> z -> 0.

    Returns the presentation and the span of cocycle representatives Omega -> x
    that complements the restrictions of maps P0 -> x.
    """
    p = z.p
    pres = projective_presentation(z)
    omega_hom = hom_basis(pres.sub, x)
    if not omega_hom:
        return pres, HomSpace(pres.sub, x, [])
    flat = np.array([g.flat() for g in omega_hom])
    image_rows = []
    for g in hom_basis(pres.middle, x):
        coords = express_in_rows(pres.mono.then(g).flat().reshape(1, -1), flat, p)
        assert coords is not None
        image_rows.append(coords[0])
    img = ff.row_space_basis(np.array(image_rows), p) if image_rows \
        else ff.zeros(0, len(omega_hom))
    comp = quotient_basis(img, ff.eye(len(omega_hom)), p)
    space = HomSpace(pres.sub, x, omega_hom)
    return pres, HomSpace(pres.sub, x, [space.element(row) for row in comp])


def block_diagonal(mats: list[np.ndarray]) -> np.ndarray:
    out = ff.zeros(sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats))
    i = j = 0
    for m in mats:
        out[i : i + m.shape[0], j : j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    return out


def direct_sum_with_maps(ms: list[Module], algebra=None):
    """Block-diagonal sum of ms (in order) with canonical inclusions and projections."""
    alg = ms[0].algebra if ms else algebra
    dims = tuple(sum(m.dims[v] for m in ms) for v in range(alg.nv))
    total = Module(alg, dims, {a: block_diagonal([m.act[a] for m in ms]) for a in alg.arrows})
    inclusions, projections = [], []
    offset = [0] * alg.nv
    for m in ms:
        incl_mats, proj_mats = [], []
        for v in range(alg.nv):
            inc = ff.zeros(m.dims[v], dims[v])
            inc[:, offset[v] : offset[v] + m.dims[v]] = ff.eye(m.dims[v])
            incl_mats.append(inc)
            proj_mats.append(inc.T.copy())
        inclusions.append(Morphism(m, total, tuple(incl_mats)))
        projections.append(Morphism(total, m, tuple(proj_mats)))
        offset = [o + d for o, d in zip(offset, m.dims)]
    return total, inclusions, projections


def submodule_rows_brute(m: Module) -> list[tuple[np.ndarray, ...]]:
    """Every tuple of vertex subspaces (RREF bases) closed under every non-vertex
    basis element of the algebra."""
    alg, p = m.algebra, m.p
    spaces = [[b for k in range(d + 1) for b in _subspace_bases(d, k, p)] for d in m.dims]
    out = []
    for rows in itertools.product(*spaces):
        if all(ff.rank(np.concatenate([rows[alg.tgt[i]],
                                       ff.mul(rows[alg.src[i]], m.act_block(i), p)]), p)
               == rows[alg.tgt[i]].shape[0] for i in range(alg.nv, alg.dim)):
            out.append(rows)
    return out


def submodule_rows_by_joins(
    m: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> list[tuple[np.ndarray, ...]]:
    """All submodules as canonical per-vertex row bases, ordered by (dimension, signature).

    The submodule of every nonzero vector, closed under the arrows until
    stable, then the join closure of those under pairwise sums with every
    submodule seen so far.  Closing under the arrows closes under the whole
    algebra, since the arrows generate its radical.
    """
    alg = m.algebra
    p = m.p
    gen_count = sum(p ** d for d in m.dims)
    if gen_count > thresholds.submodule_vectors:
        raise BudgetExceeded(
            f"submodule generation for dimension vector {list(m.dims)} too large",
            needed=gen_count, limit=thresholds.submodule_vectors,
        )
    out_arrows: dict[int, list[int]] = {v: [] for v in range(alg.nv)}
    for a in alg.arrows:
        out_arrows[alg.src[a]].append(a)

    def close(rows: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        rows = [ff.row_space_basis(r, p) for r in rows]
        changed = True
        while changed:
            changed = False
            for s in range(alg.nv):
                if rows[s].shape[0] == 0:
                    continue
                for a in out_arrows[s]:
                    t = alg.tgt[a]
                    pushed = ff.mul(rows[s], m.act[a], p)
                    grown = ff.subspace_sum(rows[t], pushed, p)
                    if grown.shape[0] > rows[t].shape[0]:
                        rows[t] = grown
                        changed = True
        return tuple(rows)

    zero_rows = tuple(ff.zeros(0, d) for d in m.dims)
    seen: dict[tuple, tuple[np.ndarray, ...]] = {}

    def sig(rows: tuple[np.ndarray, ...]) -> tuple:
        return tuple(ff.signature(r) for r in rows)

    seen[sig(zero_rows)] = zero_rows
    for w in range(alg.nv):
        d = m.dims[w]
        for code in range(1, p ** d):
            vec = np.zeros((1, d), dtype=np.int64)
            c = code
            for i in range(d):
                vec[0, i] = c % p
                c //= p
            rows = [ff.zeros(0, m.dims[v]) for v in range(alg.nv)]
            rows[w] = vec
            closed = close(rows)
            seen.setdefault(sig(closed), closed)
    worklist = list(seen.values())
    while worklist:
        if len(seen) > thresholds.submodule_count:
            raise BudgetExceeded(
                f"too many submodules for dimension vector {list(m.dims)}",
                needed=len(seen), limit=thresholds.submodule_count,
            )
        nxt = []
        for a_rows in worklist:
            for b_rows in list(seen.values()):
                summed = tuple(
                    ff.subspace_sum(x, y, p) for x, y in zip(a_rows, b_rows)
                )
                s = sig(summed)
                if s not in seen:
                    seen[s] = summed
                    nxt.append(summed)
        worklist = nxt
    result = sorted(seen.values(), key=lambda rows: (sum(r.shape[0] for r in rows), sig(rows)))
    return result


def intertwines(f: Morphism) -> bool:
    """Whether the blocks of f commute with the action of every arrow."""
    alg = f.src.algebra
    return all(np.array_equal(ff.mul(f.src.act[a], f.mats[alg.tgt[a]], f.p),
                              ff.mul(f.mats[alg.src[a]], f.dst.act[a], f.p))
               for a in alg.arrows)


def middle_term(ext: Ext1, cocycle: np.ndarray) -> ShortExactSequence:
    """0 -> sub -> E -> quot -> 0 for a cocycle, E the block module of Ext1,
    with the inclusion of sub and the projection onto quot checked as maps."""
    z, x = ext.quot, ext.sub
    e = _extension([(z, cocycle)], x, check=False)
    nv = x.algebra.nv
    mono = Morphism(x, e, tuple(np.concatenate([ff.zeros(x.dims[v], z.dims[v]), ff.eye(x.dims[v])],
                                               axis=1) for v in range(nv)))
    epi = Morphism(e, z, tuple(np.concatenate([ff.eye(z.dims[v]), ff.zeros(x.dims[v], z.dims[v])])
                               for v in range(nv)))
    if not (intertwines(mono) and intertwines(epi)):
        raise InputError("matrices do not intertwine the actions")
    return ShortExactSequence(mono, epi)


def middle_term_by_pushout(pres: ShortExactSequence, cocycle: Morphism) -> ShortExactSequence:
    """0 -> X -> E -> Z -> 0 for a cocycle Omega -> X: E = (X ⊕ P0) / {(c(w), -w)}."""
    x, p = cocycle.dst, cocycle.p
    nv = x.algebra.nv
    big, (in_x, _), (_, to_p0) = direct_sum_with_maps([x, pres.middle])
    glued = [ff.row_space_basis(np.concatenate([cocycle.mats[v], -pres.mono.mats[v] % p], axis=1), p)
             for v in range(nv)]
    parts = quotient_by_rows(big, glued)
    epi_of_big = to_p0.then(pres.epi)
    epi = Morphism(parts.module, pres.quot,
                   tuple(ff.mul(parts.rep_rows[v], epi_of_big.mats[v], p) for v in range(nv)))
    return ShortExactSequence(in_x.then(parts.projection), epi)


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


def filtration_witness_unfiltered(u, m: Module, class_ids) -> Filtration | None:
    """Search for an explicit filtration of m with subquotients in class_ids:
    every nonzero submodule is built and decomposed, and one isomorphic to a
    class starts a chain whose rest filters the quotient.  Failed searches
    are remembered in the universe cache under (decompose(m, u), the classes
    whose dimension vector is <= dims(m)), which decides the answer."""
    zero_rows = _zero_rows(m)
    if m.is_zero:
        return Filtration(u, m, [zero_rows], ())
    classes = tuple(c for c in sorted(set(int(i) for i in class_ids))
                    if all(a <= b for a, b in zip(u.module(c).dims, m.dims)))
    failures = u.cache.setdefault(("unfiltered_search_failures",), set())
    key = (decompose(m, u), classes)
    if key in failures:
        return None
    for rows in submodule_rows(m, u.thresholds):
        if sum(r.shape[0] for r in rows) == 0:
            continue
        sub, _ = submodule_from_rows(m, list(rows))
        sub_ids = decompose(sub, u)
        if len(sub_ids) != 1 or sub_ids[0] not in classes:
            continue
        parts = quotient_by_rows(m, list(rows))
        rest = filtration_witness_unfiltered(u, parts.module, classes)
        if rest is None:
            continue
        chain = [zero_rows, tuple(ff.row_space_basis(r, m.p) for r in rows)]
        for upper in rest.chain[1:]:
            chain.append(_preimage_rows(parts.projection, upper))
        return Filtration(u, m, chain, (sub_ids[0],) + rest.classes)
    failures.add(key)
    return None


def summand_audit_by_search(u, closure, generators) -> dict:
    """Whether Filt of the generators is summand-closed, decided by searching
    an explicit generator filtration of every closure member (the oracle of
    the census criterion sim(filt_closure(M)) = M)."""
    report = {"ok": True, "members": {}, "misses": []}
    for uid in mask_ids(closure):
        witness = filtration_witness_unfiltered(u, u.module(uid), generators)
        valid = witness is not None and witness.validate()
        report["members"][uid] = bool(valid)
        if not valid:
            report["ok"] = False
            report["misses"].append(uid)
    return report


def enumerate_all_paths(quiver: Quiver, max_paths: int,
                        max_len: int | None = None) -> list[tuple[int, ...]]:
    """Every path of Q of length 1 to max_len, by (length, arrows); all of them if max_len is None."""
    paths: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [(i,) for i in range(len(quiver.arrows))]
    length = 1
    while frontier and (max_len is None or length <= max_len):
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
        length += 1
    paths.sort(key=lambda w: (len(w), w))
    return paths


def quotient_by_ideal_fixpoint(quiver: Quiver, relations, p: int, max_paths: int = 4096,
                               max_len: int | None = None) -> Algebra:
    """kQ/I with I grown to a fixpoint under products with all paths of Q.

    With max_len set, paths longer than it count as zero, which gives kQ/I
    only when every path of length max_len + 1 lies in I (a quiver with
    oriented cycles whose relations contain all paths of that length).
    """
    arrow_index = {a[0]: i for i, a in enumerate(quiver.arrows)}
    rel_paths = []
    for rel in relations:
        terms = [(c % p, tuple(arrow_index[n] for n in names)) for c, names in rel if c % p]
        if terms:
            rel_paths.append(terms)
    paths: list[tuple[int, ...] | str] = list(quiver.vertices)
    paths += enumerate_all_paths(quiver, max_paths, max_len)
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
        return index.get(q1 + q2)

    seed = []
    for terms in rel_paths:
        vec = np.zeros(n, dtype=np.int64)
        for coeff, aidx in terms:
            if aidx in index:
                vec[index[aidx]] = (vec[index[aidx]] + coeff) % p
        seed.append(vec)
    ideal = ff.row_space_basis(np.array(seed).reshape(-1, n), p) if seed else ff.zeros(0, n)
    changed = True
    while changed:
        changed = False
        prods = [ideal]
        for row in ideal:
            support = np.nonzero(row)[0]
            for q in paths:
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
    for i in range(n):
        grown = ff.subspace_sum(span, ff.eye(n)[i : i + 1], p)
        if grown.shape[0] > span.shape[0]:
            chosen.append(i)
            span = grown
    full = np.concatenate([ideal, ff.eye(n)[chosen]]) if ideal.shape[0] else ff.eye(n)[chosen]
    finv = ff.solve(full, ff.eye(n), p)
    reduce_cols = finv[:, ideal.shape[0] :]

    d = len(chosen)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for i, qi in enumerate(chosen):
        for j, qj in enumerate(chosen):
            ci = concat(paths[qi], paths[qj])
            if ci is not None:
                mult[i, j] = ff.eye(n)[ci] @ reduce_cols % p

    vlabels = list(quiver.vertices)
    vindex = {v: k for k, v in enumerate(vlabels)}
    labels = [_path_label(quiver, paths[qi]) for qi in chosen]
    src = [vindex[path_src(paths[qi])] for qi in chosen]
    tgt = [vindex[path_tgt(paths[qi])] for qi in chosen]
    return Algebra(p, vlabels, labels, src, tgt, mult, quiver=quiver)


def ideal_of_idempotent(a: Algebra, e: IdempotentSpec) -> np.ndarray:
    """Row basis of the two-sided ideal AeA from the products b_i e_v b_j."""
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


def decompose_split_first(m: Module, u) -> tuple[int, ...]:
    """Krull-Schmidt decomposition that scans End(m) for a splitting
    endomorphism first and looks m up among the members only once none
    exists."""
    if m.is_zero:
        return ()
    f = _splitting_endomorphism(m, HomSpace(m, m), u.thresholds)
    if f is None:
        uid = u.id_of(m)
        if uid is None:
            raise UniverseExhausted(m.dims)
        return (uid,)
    sub_i, _ = submodule_from_rows(m, [ff.row_space_basis(mat, m.p) for mat in f.mats])
    sub_k, _ = submodule_from_rows(m, [ff.row_kernel(mat, m.p) for mat in f.mats])
    return tuple(sorted(decompose_split_first(sub_i, u) + decompose_split_first(sub_k, u)))


def submodule_sequences_per_call(m: Module, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """(sub, inclusion, quotient parts) of every proper nonzero submodule,
    built from its rows on each call."""
    out = []
    for rows in submodule_rows(m, thresholds):
        total = sum(r.shape[0] for r in rows)
        if total == 0 or total == m.total_dim:
            continue
        sub, incl = submodule_from_rows(m, list(rows))
        out.append((sub, incl, quotient_by_rows(m, list(rows))))
    return out


def hom_profile_fresh(u, i: int, j: int) -> HomProfile:
    """The Hom profile of a member pair, scanned in a Hom space solved afresh."""
    hom = HomSpace(u.module(i), u.module(j))
    injective = [is_injective(f) for f in hom.elements(thresholds=u.thresholds)]
    return HomProfile(hom.dim, any(injective), any(not inj for inj in injective))


def torf_by_left_schur_filter(u) -> list:
    """The torsion-free classes as the left Schur census entries flagged
    torsion-free: the oracle of census.all_torf's lattice walk."""
    return [e for e in all_left_schur(u).entries if e.flags["torsion_free"]]


def hom_element_kernels_fresh(u, i: int, j: int):
    """(kernel summands, cokernel summands) of every nonzero map, from a Hom
    space solved afresh."""
    m, n = u.module(i), u.module(j)
    table = []
    for f in HomSpace(m, n).elements(thresholds=u.thresholds):
        ker, _ = submodule_from_rows(m, [ff.row_kernel(mat, f.p) for mat in f.mats])
        cok = quotient_by_rows(n, [ff.row_space_basis(mat, f.p) for mat in f.mats]).module
        table.append((decompose(ker, u), decompose(cok, u)))
    return tuple(table)


def trivial_filtration(u, m: Module) -> Filtration:
    """The empty filtration of the zero module or the single step 0 ⊂ m."""
    if m.is_zero:
        return Filtration(u, m, [_zero_rows(m)], ())
    ids = decompose(m, u)
    if len(ids) != 1:
        raise ValueError("trivial filtration needs an indecomposable module")
    return Filtration(u, m, [_zero_rows(m), tuple(ff.eye(d) for d in m.dims)], (ids[0],))


def brick_ids_fresh(u) -> tuple[int, ...]:
    """Members whose End, solved afresh, has only invertible nonzero elements."""
    return tuple(i for i in u.ids if is_brick(u.module(i), u.thresholds))


def theta(r, n: Module) -> Morphism:
    """The canonical map j_! N -> j_* N written out: theta(n (x) x)(y) = n.(xy),
    at each vertex the block of a pair x in eA, y in Ae read in j_* N's rows."""
    a, p = r.a, n.p
    jl = r.apply_with_data("j_lower_shriek", n)
    js = r.apply_with_data("j_star", n)
    (sl, dl), (ss, ds) = r._layout(n, True), r._layout(n, False)
    mats = []
    for v in range(a.nv):
        big = ff.zeros(dl[v], ds[v])
        for x, w in r._blocks[True][v]:
            for y, w2 in r._blocks[False][v]:
                big[sl[x]:sl[x] + n.dims[w], ss[y]:ss[y] + n.dims[w2]] = \
                    n.act_of_vector(a.mult[x, y][r._c_index], w, w2)
        coords = ff.coordinates(ff.mul(jl.data[1][1][0][v], big, p), js.data[1][1][v], p)
        assert coords is not None, "theta leaves j_* N"
        mats.append(coords)
    return Morphism(jl.module, js.module, mats)


def glue_subcategory_by_sets(r, ids_y, ids_z) -> tuple[int, ...]:
    """{X : j^* X in E_Z and i^! X in E_Y}, member by member on id sets."""
    y_ids, z_ids = set(ids_y), set(ids_z)
    return tuple(uid for uid in r.u_a.ids
                 if set(r.image_ids("j_upper", uid)) <= z_ids
                 and set(r.image_ids("i_shriek", uid)) <= y_ids)


def restrict_by_sets(r, ids_x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(decomposed i^! image, decomposed j^* image) of an id set of mod A."""
    y_ids: set[int] = set()
    z_ids: set[int] = set()
    for uid in ids_x:
        y_ids.update(r.image_ids("i_shriek", uid))
        z_ids.update(r.image_ids("j_upper", uid))
    return tuple(sorted(y_ids)), tuple(sorted(z_ids))


def verify_theorem_by_sets(r, which: str) -> dict:
    """recollements.verify_theorem for laws 3.2, 3.3 and 3.4, sweeping id
    tuples through the two functions above; the predicates take their masks."""
    law = LAW_ALIASES[which]
    assert law in ("schur", "wide", "torf"), "the subset sweep covers the subcategory laws"
    exact, cert = r.is_i_shriek_exact()
    report: dict = {"law": law, "ok": True, "hypothesis_exact": exact,
                    "certificate": cert.as_dict(), "pairs_checked": 0, "counterexamples": []}
    if law in NEEDS_EXACT and not exact:
        report["skipped"] = True
        report["reason"] = "i^! is not exact; the law's hypothesis fails here"
        return report
    pred = {"schur": is_left_schur, "wide": is_wide, "torf": is_torsion_free}[law]
    nb, nc = len(r.u_b), len(r.u_c)
    if 2 ** (nb + nc) > r.thresholds.subset_cap:
        raise BudgetExceeded("edge subset sweep too large", needed=2 ** (nb + nc),
                             limit=r.thresholds.subset_cap)

    def subsets(n):
        return [tuple(i for i in range(n) if bits >> i & 1) for bits in range(2 ** n)]

    z_edges = [(z, pred(r.u_c, id_mask(z))) for z in subsets(nc)]
    for y in subsets(nb):
        y_ok = pred(r.u_b, id_mask(y))
        for z, z_ok in z_edges:
            x = glue_subcategory_by_sets(r, y, z)
            x_ok = pred(r.u_a, id_mask(x))
            report["pairs_checked"] += 1
            if x_ok != (y_ok and z_ok):
                report["ok"] = False
                report["counterexamples"].append(
                    {"e_y": list(y), "e_z": list(z), "e_x": list(x),
                     "edges_pass": y_ok and z_ok, "glued_passes": x_ok})
            elif x_ok and restrict_by_sets(r, x) != (y, z):
                report["ok"] = False
                report["counterexamples"].append(
                    {"e_y": list(y), "e_z": list(z),
                     "restriction_mismatch": [list(ids) for ids in restrict_by_sets(r, x)]})
    return report
