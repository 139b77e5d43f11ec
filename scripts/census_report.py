#!/usr/bin/env python3
"""Enumerate bricks, monobricks and the subcategory classes of one algebra.

Closes every monobrick, keeping it where sim of its closure gives it back
(the others are non-representable), checks the closures against the subset
oracle (every id subset filtered by the direct predicate) where the 2^n
subsets fit the subset cap, verifies the round-trip bijection laws, and
prints the counts.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schurrec.census import all_left_schur, all_monobricks
from schurrec.modules import build_universe
from schurrec.storage import canonical_json, load_algebra_file
from schurrec.subcats import verify_bijection


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--algebra", required=True)
    ap.add_argument("--char", type=int)
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--out")
    args = ap.parse_args()

    alg = load_algebra_file(args.algebra, args.char)
    u = build_universe(alg, args.max_dim)
    mono = all_monobricks(u)
    schur = all_left_schur(u)
    bij = verify_bijection(u)
    print(f"algebra {alg.algebra_hash} over F_{alg.p}, bound {args.max_dim}, "
          f"{len(u)} indecomposables ({u.strategy})")
    print(f"  bricks: {mono.counts['bricks']}  monobricks: {mono.counts['monobricks']} "
          f"(semibricks {mono.counts['semibricks']}, "
          f"cofinally closed {mono.counts['cc_monobricks']})")
    print(f"  left Schur: {schur.counts['left_schur']}  wide: {schur.counts['wide']}  "
          f"torsion-free: {schur.counts['torsion_free']}  "
          f"oracle ran: {schur.oracle_ran}")
    print(f"  bijection round-trips: {'ok' if bij['ok'] else 'FAILED'}")
    if args.out:
        Path(args.out).write_text(canonical_json(
            {"monobricks": mono.counts, "left_schur": schur.counts, "bijection": bij}))
    return 0 if bij["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
