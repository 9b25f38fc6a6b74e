#!/usr/bin/env python3
"""Tabulate the four-term difference-identity residual against the cutoff.

The residual of the bilinear identity measures the series truncation; it
should fall geometrically as the cutoff weight grows.

Usage: python scripts/hirota_decay.py --kind SE --n 1 --t1 0.2 --alpha 8 --beta 10
"""
import argparse

from pftau.blas import one_thread
from pftau.hub import HIROTA_ALPHA, HIROTA_BETA, HIROTA_CUTOFFS
from pftau.moments import EnsembleSpec
from pftau.symfun import CouplingSeq
from pftau.tauseries import hirota_residual, tau_charge_family


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", default="SE", choices=["OE", "SE", "GinOE", "GinSE"])
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--L", type=int, default=0)
    ap.add_argument("--t1", type=float, default=0.2)
    # the defaults are the hirota-decay verdict's own
    ap.add_argument("--alpha", type=float, default=HIROTA_ALPHA)
    ap.add_argument("--beta", type=float, default=HIROTA_BETA)
    ap.add_argument("--cutoffs", type=int, nargs="+", default=list(HIROTA_CUTOFFS))
    args = ap.parse_args()

    with one_thread():
        spec = EnsembleSpec(args.kind, args.n, args.L)
        t = CouplingSeq.of(args.t1)
        charge = spec.n_eff
        charges = [charge - 1, charge, charge + 1, charge + 2]

        print(f"# {args.kind} N={args.n} L={args.L} t=({args.t1},) "
              f"shift points {args.alpha}, {args.beta}")
        print(f"{'W':>4}  {'relative residual':>18}  {'decay factor':>12}")
        prev = None
        for w in args.cutoffs:
            fam = tau_charge_family(spec, charges, w)
            rel = hirota_residual(fam, t, args.alpha, args.beta).relative
            factor = f"{prev / rel:12.2f}" if prev else " " * 12
            print(f"{w:4d}  {rel:18.6e}  {factor}")
            prev = rel


if __name__ == "__main__":
    main()
