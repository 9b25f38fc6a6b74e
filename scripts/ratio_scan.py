#!/usr/bin/env python3
"""Scan a coupling magnitude and compare series against eigenvalue quadrature.

Shows how the truncated Schur series tracks the brute-force partition
function as the first coupling grows, for one ensemble kind.  Both ratios
divide by Z at t = 0, or at t = (0.05,) where Z vanishes at t = 0 (as for
OE with N = 1, L = 1).

Usage: python scripts/ratio_scan.py --kind GinSE --n 2 --L 1 --cutoff 12
"""
import argparse

from pftau.blas import one_thread
from pftau.hub import series_oracle_ratios
from pftau.moments import EnsembleSpec
from pftau.symfun import CouplingSeq


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", default="SE", choices=["OE", "SE", "GinOE", "GinSE"])
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--L", type=int, default=0)
    ap.add_argument("--cutoff", type=int, default=12)
    ap.add_argument("--tmax", type=float, default=0.45)
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args()

    with one_thread():
        print(f"# {args.kind} N={args.n} L={args.L}  cutoff W={args.cutoff}")
        print(f"{'t1':>8}  {'series ratio':>16}  {'oracle ratio':>16}  {'rel diff':>10}")
        for k in range(args.steps + 1):
            t1 = args.tmax * k / args.steps
            r_series, r_oracle, _ = series_oracle_ratios(
                EnsembleSpec(args.kind, args.n, args.L, CouplingSeq.of(t1)), args.cutoff)
            r_series, r_oracle = r_series.real, r_oracle.real
            rel = abs(r_series / r_oracle - 1.0) if r_oracle else float("nan")
            print(f"{t1:8.3f}  {r_series:16.10f}  {r_oracle:16.10f}  {rel:10.2e}")


if __name__ == "__main__":
    main()
