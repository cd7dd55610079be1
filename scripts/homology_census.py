"""Tabulate homology facets by vertex count and by family.

Splits the facets that attach along their full boundary into the x-family
(last vertex below the top corner) and the y-family (last vertex equal to
it), then checks that the signed census reproduces both the reduced Euler
characteristic and the diagonal of the signed generating series.

    python scripts/homology_census.py [--n-max N]

Exits 0 when the three agree at every n, 1 when they differ at any.
"""

import argparse
import sys

from gammashell.complexes import (
    ComplexParams,
    f_vector_formula,
    reduced_euler_characteristic,
)
from gammashell.facets import enumerate_facets
from gammashell.genfun import series_XY
from gammashell.shelling import homology_families


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=6)
    args = ap.parse_args(argv)

    xy = series_XY(args.n_max + 1)
    all_ok = True
    for n in range(1, args.n_max + 1):
        params = ComplexParams(3, n)
        xs, ys = homology_families(params)
        census: dict[int, list[int]] = {}
        for fam_idx, fam in enumerate((xs, ys)):
            for f in fam:
                census.setdefault(len(f), [0, 0])[fam_idx] += 1
        signed = sum(
            (-1 if r % 2 else 1) * (cx + cy) for r, (cx, cy) in census.items()
        )
        chi = reduced_euler_characteristic(f_vector_formula(params))
        diag = xy.coefficient((n + 1,) * 3)
        total = len(xs) + len(ys)
        print(
            f"n={n}: facets={len(enumerate_facets(params))} "
            f"homology={total} (x={len(xs)}, y={len(ys)})"
        )
        for r in sorted(census):
            cx, cy = census[r]
            print(f"    {r} vertices: {cx + cy:>6} (x {cx:>6}, y {cy:>6})")
        ok = signed == -chi == diag
        all_ok = all_ok and ok
        print(
            f"    signed sum {signed}  -chi {-chi}  series diagonal {diag}  "
            f"{'ok' if ok else 'MISMATCH'}"
        )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
