"""Sweep the full verification pipeline over a range of n.

For each n: enumerate facets, verify the canonical shelling, compute Betti
numbers by both routes, and compare the alternating sums with the closed
form.  Everything is exact; --n-max 6 takes about one second on a 2-core
machine (Python 3.11), of which the rank-based Betti route at n = 6 is
about 0.4 s (skip it with --skip-matrix).
"""

import argparse
import time

from gammashell import (
    betti_from_shelling,
    betti_numbers,
    dixon_lhs,
    f_vector_formula,
    make_complex,
    reduced_euler_characteristic,
    verify_shelling,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--skip-matrix", action="store_true",
                    help="skip the rank-based Betti route")
    args = ap.parse_args()

    header = (
        f"{'n':>2} {'facets':>7} {'pairs':>10} {'shelling':>8} "
        f"{'fallbacks':>9} {'betti':>24} {'match':>5} {'chi':>8} {'time':>7}"
    )
    print(header)
    print("-" * len(header))
    for n in range(1, args.n_max + 1):
        start = time.perf_counter()
        params = make_complex(args.p, n)
        report = verify_shelling(params)
        shelled = betti_from_shelling(params)
        match = "-"
        if not args.skip_matrix:
            match = "yes" if betti_numbers(params) == shelled else "NO"
        chi = reduced_euler_characteristic(f_vector_formula(params))
        elapsed = time.perf_counter() - start
        betti_str = ",".join(str(b) for b in shelled)
        print(
            f"{n:>2} {report.facet_count:>7} {report.total_pairs:>10} "
            f"{'ok' if report.is_shelling else 'FAIL':>8} "
            f"{report.fallback_count:>9} {betti_str:>24} {match:>5} "
            f"{chi:>8} {elapsed:>6.2f}s"
        )
        if args.p == 3 and chi != -dixon_lhs(n):
            print(f"   !! chi mismatch at n={n}: {chi} vs {-dixon_lhs(n)}")


if __name__ == "__main__":
    main()
