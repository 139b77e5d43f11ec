"""Seeded algebra inputs of the census_a4 and walls_p3 workloads.

Each input is a fixed bound quiver algebra; the seed only changes its
presentation: vertex and arrow names, and the order in which vertices and
arrows are listed.  Every oracle count is invariant under such changes, so
one seed's inputs are as hard as another's while still differing as files.
This module is pure Python and does not import the engine.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# name -> (field characteristic, vertices, arrows (name, source, target), relations)
# Relations are lists of arrow-name paths, each with coefficient 1.
ALGEBRAS = {
    "a4": (2, ["1", "2", "3", "4"],
           [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")], []),
    "kronecker": (3, ["1", "2"], [("a", "1", "2"), ("b", "1", "2")], []),
    "d4": (3, ["1", "2", "3", "4"],
           [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")], []),
    "loop": (3, ["1"], [("x", "1", "1")], [["x", "x"]]),
}


def algebra_document(name: str, seed: int) -> tuple[dict, dict]:
    """(algebra JSON document, map from original to seeded vertex labels)."""
    p, vertices, arrows, relations = ALGEBRAS[name]
    rng = random.Random(f"{name}:{seed}")
    fresh = rng.sample(range(10_000), len(vertices) + len(arrows))
    vmap = {v: f"v{n}" for v, n in zip(vertices, fresh)}
    amap = {a[0]: f"a{n}" for a, n in zip(arrows, fresh[len(vertices):])}
    vlist = [vmap[v] for v in vertices]
    alist = [{"name": amap[n], "from": vmap[s], "to": vmap[t]} for n, s, t in arrows]
    rng.shuffle(vlist)
    rng.shuffle(alist)
    doc = {
        "field_char": p,
        "quiver": {"vertices": vlist, "arrows": alist},
        "relations": [[{"coeff": 1, "path": [amap[a] for a in path]}]
                      for path in relations],
    }
    return doc, vmap


def write_inputs(names, seed: int, directory: Path) -> None:
    """Write <name>.json for each algebra into directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        doc, _ = algebra_document(name, seed)
        (directory / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
