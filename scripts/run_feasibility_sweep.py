#!/usr/bin/env python3
"""Tabulate the certificate over a (lambda, l) grid and report whether the
sufficient conditions for the continuous exponential rate (Lambda < 0) and the
discrete linear rate (r < 1) are met anywhere.

They are not: (1+theta)(1+lambda*L) >= 2 for every admissible constant tuple,
while the discrete threshold tops out at sqrt(5)-1 ~= 1.236. The sweep makes
that explicit, grid point by grid point.
"""

import argparse
import sys
from pathlib import Path

from qvisolve.cli import main as qvisolve_main
from qvisolve.csvio import read_sweep_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda-grid", default="0.05:2:40")
    ap.add_argument("--l-grid", default="0,0.05,0.1")
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for L, rho in ((1.0, 1.0), (3.0, 1.0)):
        out = out_dir / f"feasibility_L{L:g}_rho{rho:g}.csv"
        code = qvisolve_main([
            "sweep", "--L", str(L), "--rho", str(rho),
            "--lambda-grid", args.lambda_grid, "--l-grid", args.l_grid,
            "-o", str(out),
        ])
        if code != 0:
            return code
        doc = read_sweep_csv(out)
        products = [row["f_lipschitz"] for row in doc["rows"]]
        feasible = sum(row["discrete_ok"] or row["continuous_ok"] for row in doc["rows"])
        print(f"L={L:g} rho={rho:g}: {len(doc['rows'])} cells, "
              f"min (1+theta)(1+lambda*L) = {min(products):.6f}, "
              f"feasible cells: {feasible}")
        for comment in doc["comments"]:
            print(f"  # {comment}")
        print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
