#!/usr/bin/env python3
"""Measure the convergence orders of the eigenvalue expansions.

For random symmetric matrices with clustered spectra and random
directions, the remainder of the first-order expansion should shrink
like t^2 and the remainder of the second-order prediction like t^3.
Fits log-log slopes per instance and prints summary statistics; the
per-instance curves can be dumped to CSV for plotting.
"""
import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specvar import (
    eig,
    eig_dir_derivative,
    eig_second_prediction,
    gapped_spectrum,
    matrix_with_spectrum,
    random_symmetric,
)


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 100
    n: int = 6
    gap: float = 1.0
    direction_norm: float = 4.0
    t_grid: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    seed: int = 0


def remainders(cfg: ExperimentConfig, rng: np.random.Generator):
    m = int(rng.integers(2, cfg.n - 1))
    lam = gapped_spectrum(rng, (m, cfg.n - m), gap=cfg.gap)
    x, _ = matrix_with_spectrum(rng, lam)
    es = eig(x)
    h = random_symmetric(rng, cfg.n, frob=cfg.direction_norm)
    dd = eig_dir_derivative(es, h)
    r1, r2 = [], []
    for t in cfg.t_grid:
        lam_t = np.sort(np.linalg.eigvalsh(x + t * h))[::-1]
        r1.append(float(np.linalg.norm(lam_t - es.lam - t * dd)))
        r2.append(float(np.linalg.norm(lam_t - eig_second_prediction(es, h, t))))
    return r1, r2


def slope(ts, rs) -> float:
    return float(np.polyfit(np.log(ts), np.log(rs), 1)[0])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", type=Path, default=None,
                    help="write per-instance remainder curves here")
    args = ap.parse_args()

    cfg = ExperimentConfig(trials=args.trials, n=args.n, seed=args.seed)
    rng = np.random.default_rng(cfg.seed)
    s1, s2 = [], []
    rows = []
    for k in range(cfg.trials):
        r1, r2 = remainders(cfg, rng)
        s1.append(slope(cfg.t_grid, r1))
        s2.append(slope(cfg.t_grid, r2))
        for t, a, b in zip(cfg.t_grid, r1, r2):
            rows.append([k, t, a, b])

    s1, s2 = np.array(s1), np.array(s2)
    print(f"trials: {cfg.trials}, n = {cfg.n}, t grid: {cfg.t_grid}")
    print(f"first-order remainder slope:  median {np.median(s1):.3f}  "
          f"range [{s1.min():.3f}, {s1.max():.3f}]  (expected 2)")
    print(f"second-order remainder slope: median {np.median(s2):.3f}  "
          f"range [{s2.min():.3f}, {s2.max():.3f}]  (expected 3)")

    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["instance", "t", "first_order_remainder", "prediction_remainder"])
            w.writerows(rows)
        print(f"curves written to {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
