"""Benchmark model and reproduction runs.

The benchmark full model is the order-20 SISO system with poles spaced
uniformly on [-2, -1] and transfer function prod_j mu_j / (s - mu_j)
(unit DC gain). Its partial-fraction residues span ~16 orders of magnitude
with alternating signs, so the residues are computed as exact rationals of
integers, each rounded once into an extended-precision payload; every sum
over its terms runs in that precision end to end. Building the model does
not load mpmath.

``run_bench`` reproduces the study on that model: delay-free reductions at
several orders, input-delayed reductions at orders 2 and 4, impulse-response
traces on t in [0, 50], and a gap/MSE summary written as deterministic
JSON/CSV files.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .delayopt import DelaySearchConfig
from .errors import DelayH2Error
from .h2 import compute_gap, h2_norm_sq
from .iodirka import IoDirkaConfig, io_dirka
from .irka import IrkaConfig, irka_reduce
from .models import HighPrecisionTerms, PoleResidueModel, impulse_response
from .precision import payload_entry
from .serialize import report_to_obj, save_model, write_csv, write_json

BENCH_ORDER = 20
BENCH_DPS = 50


def build_bench_model(order: int = BENCH_ORDER) -> PoleResidueModel:
    """Exact partial-fraction terms of the benchmark full model.

    Poles are the binary64 values mu = linspace(-2, -1, order); each
    residue psi_k = prod_j mu_j / prod_{j != k} (mu_k - mu_j) is an exact
    rational, rounded once into a payload of BENCH_DPS digits
    (:func:`delayh2.precision.payload_entry`), and its binary64 view is
    that entry rounded to binary64. The squared norm of this model cancels
    ~32 orders of magnitude across terms, so the stored precision must stay
    well above that for float64-accurate sums.
    """
    mu_f = np.linspace(-2.0, -1.0, order)
    # mu_j = a_j / scale with integers a_j and a power of two scale
    ratios = [float(v).as_integer_ratio() for v in mu_f]
    scale = max(q for _, q in ratios)
    a = [p * (scale // q) for p, q in ratios]
    top = math.prod(a)
    entry = lambda num, den=1: payload_entry((num, den), (0, 1), BENCH_DPS)
    hp = HighPrecisionTerms(
        poles=[entry(v, scale) for v in a],
        left=[(entry(top, scale * math.prod(a[k] - a[j] for j in range(order) if j != k)),)
              for k in range(order)],
        right=[(entry(1),)] * order, dps=BENCH_DPS)
    return PoleResidueModel(mu_f.astype(complex), hp.left.astype(complex),
                            np.ones((order, 1), dtype=complex), hp=hp)


def run_bench(outdir, orders_free=(2, 3, 4, 5, 6), orders_delayed=(2, 4),
              outer_max: int = 80, t_max: float = 50.0, n_points: int = 2000) -> dict:
    """Run the full reproduction study into ``outdir`` and return a summary."""
    if n_points < 0:
        raise DelayH2Error(f"impulse grid point count {n_points} is negative")
    if not 0.0 <= t_max < np.inf:
        raise DelayH2Error(f"impulse horizon {t_max} is not finite and nonnegative")
    os.makedirs(outdir, exist_ok=True)
    g = build_bench_model()
    save_model(os.path.join(outdir, "bench-model-n20.json"), g)
    norm_g_sq = h2_norm_sq(g)

    t = np.linspace(0.0, t_max, n_points)
    gi = impulse_response(g, t)[0, 0]
    write_csv(os.path.join(outdir, "impulse-full.csv"),
              ("t", "g"), np.column_stack([t, gi]))

    summary = {"norm_g_sq": float(norm_g_sq), "free": {}, "delayed": {}}

    free_models = {}
    for n in orders_free:
        res = irka_reduce(g, IrkaConfig(order=n))
        h = res.model
        free_models[n] = h
        gap = compute_gap(g, h, norm_g_sq)
        hi = impulse_response(h, t)[0, 0]
        mse = float(np.mean((gi - hi) ** 2))
        save_model(os.path.join(outdir, f"free-n{n}-model.json"), h)
        write_csv(os.path.join(outdir, f"impulse-free-n{n}.csv"),
                  ("t", "h"), np.column_stack([t, hi]))
        summary["free"][str(n)] = {"gap": float(gap.j), "mse": mse,
                                   "irka_converged": bool(res.converged)}

    for n in orders_delayed:
        cfg = IoDirkaConfig(
            order=n, outer_max_iters=outer_max,
            irka=IrkaConfig(order=n),
            search=DelaySearchConfig(input_mask=(True,), output_mask=(False,)))
        report = io_dirka(g, cfg)
        hd = report.model
        hi = impulse_response(hd, t)[0, 0]
        mse = float(np.mean((gi - hi) ** 2))
        save_model(os.path.join(outdir, f"delayed-n{n}-model.json"), hd)
        write_json(os.path.join(outdir, f"delayed-n{n}-report.json"),
                   report_to_obj(report))
        write_csv(os.path.join(outdir, f"impulse-delayed-n{n}.csv"),
                  ("t", "h"), np.column_stack([t, hi]))
        summary["delayed"][str(n)] = {
            "gap": float(report.gap.j), "mse": mse,
            "input_delay": float(hd.input_delays.delays[0]),
            "outer_iterations": int(report.outer_iterations),
            "converged": bool(report.converged)}

    rows = []
    for n in orders_free:
        s = summary["free"][str(n)]
        rows.append((float(n), 0.0, s["gap"], s["mse"]))
    for n in orders_delayed:
        s = summary["delayed"][str(n)]
        rows.append((float(n), 1.0, s["gap"], s["mse"]))
    write_csv(os.path.join(outdir, "summary.csv"),
              ("order", "delayed", "gap", "mse"), rows)

    checks = {}
    if "4" in summary["delayed"] and "6" in summary["free"]:
        checks["mse_delayed4_lt_free6"] = bool(
            summary["delayed"]["4"]["mse"] < summary["free"]["6"]["mse"])
    if "2" in summary["delayed"] and "3" in summary["free"]:
        checks["gap_delayed2_lt_free3"] = bool(
            summary["delayed"]["2"]["gap"] < summary["free"]["3"]["gap"])
    summary["checks"] = checks
    write_json(os.path.join(outdir, "bench-report.json"), summary)
    return summary
