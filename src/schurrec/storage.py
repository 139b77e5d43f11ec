"""File formats: algebra inputs, universe caches, subcategory files, reports, DOT.

All JSON emitted by the package is canonical (sorted keys, two-space indent,
trailing newline) so that reruns with the same configuration are
byte-identical.  Caches are advisory: a hash mismatch triggers a rebuild plus
a warning on stderr, never stale reuse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from . import fields as ff
from .algebras import (
    Algebra,
    Bimodule,
    Quiver,
    algebra_from_quiver,
    triangular_matrix_algebra,
)
from .errors import InputError
from .modules import (
    DEFAULT_THRESHOLDS,
    IndecUniverse,
    Module,
    Thresholds,
    build_universe,
    is_surjective,
)
from .subcats import hom_profile


def canonical_json(payload) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    """Recursively convert numpy scalars/arrays and tuples for serialization."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# algebra input files


def load_algebra_file(path: str | Path, char_override: int | None = None) -> Algebra:
    """Schema: {"field_char": p, "quiver": {"vertices": [...],
    "arrows": [{"name", "from", "to"}]}, "relations": [[{"coeff", "path"}]]}."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read algebra file {path}: {exc}") from None
    if not isinstance(data, dict) or "quiver" not in data:
        raise InputError(f"algebra file {path} misses the 'quiver' block")
    p = char_override or data.get("field_char")
    if not isinstance(p, int):
        raise InputError("field_char must be an integer prime")
    q = data["quiver"]
    try:
        quiver = Quiver(
            tuple(str(v) for v in q["vertices"]),
            tuple((str(a["name"]), str(a["from"]), str(a["to"])) for a in q.get("arrows", [])),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed quiver block: {exc}") from None
    rels = data.get("relations", [])
    if not isinstance(rels, list) or not all(isinstance(rel, list) for rel in rels):
        raise InputError("relations must be a list of relations, each a list of terms")
    relations = []
    for rel in rels:
        terms = []
        for term in rel:
            try:
                terms.append((int(term["coeff"]), [str(x) for x in term["path"]]))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed relation term: {exc}") from None
        relations.append(terms)
    return algebra_from_quiver(quiver, relations, p)


def load_bimodule_file(path: str | Path, b: Algebra, c: Algebra) -> Bimodule:
    """Schema: {"dim": k, "left": {"<C basis label>": matrix},
    "right": {"<B basis label>": matrix}} with the column-operator convention
    c.m_j = sum_i left[c][i][j] m_i."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read bimodule file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"bimodule file {path} is not a JSON object")
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 0:
        raise InputError("bimodule dim must be a non-negative integer")
    if dim == 0:
        return Bimodule(0)

    def resolve(alg: Algebra, block: dict, side: str) -> dict[int, np.ndarray]:
        if not isinstance(block, dict):
            raise InputError(f"{side} action must map basis labels to matrices")
        out = {}
        labels = {lab: i for i, lab in enumerate(alg.labels)}
        for lab, mat in block.items():
            if lab not in labels:
                raise InputError(f"{side} action names unknown basis element {lab!r}")
            try:
                arr = ff.fmat(mat, alg.p)
            except (TypeError, ValueError) as exc:
                raise InputError(f"{side} action matrix for {lab!r} is malformed: {exc}") from None
            if arr.shape != (dim, dim):
                raise InputError(f"{side} action matrix for {lab!r} has wrong shape")
            out[labels[lab]] = arr
        missing = [alg.labels[i] for i in range(alg.dim) if i not in out]
        if missing:
            raise InputError(f"{side} action misses matrices for {missing}")
        return out

    return Bimodule(dim, resolve(c, data.get("left", {}), "left"),
                    resolve(b, data.get("right", {}), "right"))


def load_triangular(b_path, c_path, bimodule_path, char_override=None):
    b = load_algebra_file(b_path, char_override)
    c = load_algebra_file(c_path, char_override)
    bim = load_bimodule_file(bimodule_path, b, c)
    return triangular_matrix_algebra(b, c, bim)


# ---------------------------------------------------------------------------
# universe caches


UNIVERSE_FORMAT = "universe-cache@1"


def save_universe(u: IndecUniverse, path: str | Path) -> None:
    payload = {
        "format": UNIVERSE_FORMAT,
        "algebra_hash": u.algebra.algebra_hash,
        "char": u.algebra.p,
        "bound": u.bound,
        "strategy": u.strategy,
        "modules": [
            {
                "id": i,
                "dims": list(u.module(i).dims),
                "act": {u.algebra.labels[a]: u.module(i).act[a] for a in u.algebra.arrows},
            }
            for i in u.ids
        ],
    }
    Path(path).write_text(canonical_json(payload))


def load_universe(algebra: Algebra, path: str | Path,
                  thresholds: Thresholds = DEFAULT_THRESHOLDS) -> IndecUniverse | None:
    """Load a cache if it matches the algebra; None (with a warning) otherwise.

    Each module is read from the matrices of the arrow labels; other labels
    (older caches stored every basis element) are ignored.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("format") != UNIVERSE_FORMAT:
        print(f"warning: cache {path} has unknown format; rebuilding", file=sys.stderr)
        return None
    if data.get("algebra_hash") != algebra.algebra_hash:
        print(f"warning: cache {path} was built for a different algebra; rebuilding",
              file=sys.stderr)
        return None
    modules = []
    try:
        for entry in data["modules"]:
            dims = tuple(int(d) for d in entry["dims"])
            act = {a: np.array(entry["act"][algebra.labels[a]], dtype=np.int64).reshape(
                       dims[algebra.src[a]], dims[algebra.tgt[a]]) % algebra.p
                   for a in algebra.arrows}
            modules.append(Module(algebra, dims, act))
        u = IndecUniverse(algebra, int(data["bound"]), str(data["strategy"]), modules,
                          thresholds)
    except (KeyError, TypeError, ValueError, IndexError, InputError) as exc:
        print(f"warning: cache {path} is malformed ({type(exc).__name__}); rebuilding",
              file=sys.stderr)
        return None
    return u


def universe_or_build(algebra: Algebra, bound: int, cache: str | None,
                      thresholds: Thresholds = DEFAULT_THRESHOLDS) -> IndecUniverse:
    if cache and Path(cache).exists():
        loaded = load_universe(algebra, cache, thresholds)
        if loaded is not None and loaded.bound >= bound:
            return IndecUniverse(algebra, bound, loaded.strategy,
                                 [m for m in loaded.modules if m.total_dim <= bound],
                                 loaded.thresholds)
    u = build_universe(algebra, bound, thresholds=thresholds)
    if cache:
        save_universe(u, cache)
    return u


# ---------------------------------------------------------------------------
# subcategory / brick-set files


SUBCAT_FORMAT = "subcategory@1"


def save_id_set(path: str | Path, u: IndecUniverse, ids, kind: str) -> None:
    payload = {
        "format": SUBCAT_FORMAT,
        "kind": kind,
        "algebra_hash": u.algebra.algebra_hash,
        "bound": u.bound,
        "ids": sorted(int(i) for i in ids),
    }
    Path(path).write_text(canonical_json(payload))


def load_id_set(path: str | Path, u: IndecUniverse) -> tuple[list[int], str]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read id-set file {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != SUBCAT_FORMAT:
        raise InputError(f"{path} is not a subcategory file")
    if data.get("algebra_hash") != u.algebra.algebra_hash:
        raise InputError(
            f"{path} was serialized for algebra {data.get('algebra_hash')}, "
            f"not {u.algebra.algebra_hash}"
        )
    ids = data.get("ids")
    if not isinstance(ids, list) or any(type(i) is not int for i in ids):
        raise InputError(f"{path} has no list of integer ids")
    if any(i < 0 or i >= len(u) for i in ids):
        raise InputError(f"{path} names ids outside the universe")
    return ids, str(data.get("kind", "subcategory"))


# ---------------------------------------------------------------------------
# DOT export


def dot_graph(u: IndecUniverse, member_ids, mono_ids, *,
              outside: str = "omit", name: str = "bricks") -> str:
    """Brick digraph: nodes are indecomposables, edges nonzero Hom spaces.

    Monobrick members are filled black, remaining members white, non-members
    omitted or grey per the flag.  An edge is styled "mono" when every nonzero
    map is injective, "epi" when every nonzero map is surjective, "other"
    otherwise.
    """
    members = set(int(i) for i in member_ids)
    mono = set(int(i) for i in mono_ids)
    if not mono <= members:
        raise InputError("monobrick ids must be members of the subcategory")
    if outside not in ("omit", "grey"):
        raise InputError("outside flag must be 'omit' or 'grey'")
    shown = sorted(members) if outside == "omit" else list(u.ids)
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
    for i in shown:
        label = f"M{i}<{','.join(str(d) for d in u.module(i).dims)}>"
        if i in mono:
            attrs = 'style=filled, fillcolor=black, fontcolor=white'
        elif i in members:
            attrs = 'style=filled, fillcolor=white'
        else:
            attrs = 'style=filled, fillcolor=grey'
        lines.append(f'  "M{i}" [label="{label}", {attrs}];')
    style_of = {"mono": "solid", "epi": "dashed", "other": "dotted"}
    for i in shown:
        for j in shown:
            if i == j:
                continue
            prof = hom_profile(u, i, j)
            if not prof.dim:
                continue
            if not prof.exists_nonzero_noninjective:
                kind = "mono"
            elif all(is_surjective(f)
                     for f in u.hom_space(i, j).elements(thresholds=u.thresholds)):
                kind = "epi"
            else:
                kind = "other"
            lines.append(
                f'  "M{i}" -> "M{j}" [style={style_of[kind]}, homclass="{kind}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# TSV rendering for the tabular reports


def tsv_table(rows: list[dict], columns: list[str]) -> str:
    out = ["\t".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, (list, tuple)):
                v = ",".join(str(x) for x in v)
            cells.append(str(v))
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"
