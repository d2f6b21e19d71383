#!/usr/bin/env python3
"""Run the three discrete variants on the truncated sequence-space example and
write the comparison CSV (columns variant,k,residual,dist_to_solution), ready
for plotting convergence behavior with any external tool."""

import argparse
import json
import sys
from pathlib import Path

from qvisolve.cli import main as qvisolve_main
from qvisolve.csvio import read_compare_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=50, help="truncation dimension")
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--max-iter", type=int, default=300)
    ap.add_argument("--output", default="out/figure_comparison.csv")
    args = ap.parse_args(argv)

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    descriptor = json.dumps({"family": "l2_example", "n": args.n, "alpha": args.alpha})
    code = qvisolve_main([
        "compare", "--problem", descriptor, "--x0", "geometric",
        "--lambda", str(args.lam),
        "--variants", "tseng,gradient_projection,extragradient",
        "--tol", str(args.tol), "--max-iter", str(args.max_iter),
        "-o", str(out),
    ])
    if code != 0:
        return code
    doc = read_compare_csv(out)
    for variant, data in doc["variants"].items():
        print(f"{variant:20s} iterations={len(data['k']) - 1:4d}  "
              f"final residual={data['residual'][-1]:.3e}  "
              f"final distance={data['dist_to_solution'][-1]:.3e}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
