"""Benchmark model and reproduction runs.

The benchmark full model is the order-20 SISO system with poles spaced
uniformly on [-2, -1] and transfer function prod_j mu_j / (s - mu_j)
(unit DC gain). Its partial-fraction residues span ~16 orders of magnitude
with alternating signs, so the terms are built exactly with mpmath and the
model carries an extended-precision payload; every sum over its terms runs
in that precision end to end.

``run_bench`` reproduces the study on that model: delay-free reductions at
several orders, input-delayed reductions at orders 2 and 4, impulse-response
traces on t in [0, 50], and a gap/MSE summary written as deterministic
JSON/CSV files.
"""

from __future__ import annotations

import os

import mpmath
import numpy as np

from .delayopt import DelaySearchConfig
from .errors import DelayH2Error
from .h2 import compute_gap, h2_norm_sq
from .iodirka import IoDirkaConfig, io_dirka
from .irka import IrkaConfig, irka_reduce
from .models import (
    DelayedModel,
    HighPrecisionTerms,
    PoleResidueModel,
    impulse_response,
)
from .serialize import report_to_obj, save_model, write_csv, write_json

BENCH_ORDER = 20


def build_bench_model(order: int = BENCH_ORDER, dps_build: int = 60,
                      dps_store: int = 50) -> PoleResidueModel:
    """Exact partial-fraction terms of the benchmark full model.

    Poles are the binary64 values linspace(-2, -1, order); residues
    psi_k = prod_j mu_j / prod_{j != k} (mu_k - mu_j) are evaluated in
    ``dps_build`` decimal digits and stored at ``dps_store``. The squared
    norm of this model cancels ~32 orders of magnitude across terms, so
    the stored precision must stay well above that for float64-accurate
    sums.
    """
    mu_f = np.linspace(-2.0, -1.0, order)
    with mpmath.workdps(dps_build):
        mu = [mpmath.mpf(float(v)) for v in mu_f]
        top = mpmath.fprod(mu)
        psi = []
        for k in range(order):
            den = mpmath.fprod([mu[k] - mu[j] for j in range(order) if j != k])
            psi.append(top / den)
    with mpmath.workdps(dps_store):
        hp = HighPrecisionTerms(
            poles=tuple(mpmath.mpc(v) for v in mu),
            left=tuple((mpmath.mpc(p),) for p in psi),
            right=tuple((mpmath.mpc(1),) for _ in range(order)),
            dps=dps_store)
    poles = np.asarray(mu_f, dtype=complex)
    left = np.array([[complex(p)] for p in psi])
    right = np.ones((order, 1), dtype=complex)
    return PoleResidueModel(poles, left, right, hp=hp)


def _impulse_series(model, t: np.ndarray) -> np.ndarray:
    return impulse_response(model, t)[0, 0, :]


def run_bench(outdir, orders_free=(2, 3, 4, 5, 6), orders_delayed=(2, 4),
              seed: int = 0, outer_max: int = 80, t_max: float = 50.0,
              n_points: int = 2000) -> dict:
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
    gi = _impulse_series(g, t)
    write_csv(os.path.join(outdir, "impulse-full.csv"),
              ("t", "g"), np.column_stack([t, gi]))

    summary = {"norm_g_sq": float(norm_g_sq), "free": {}, "delayed": {}}

    free_models = {}
    for n in orders_free:
        res = irka_reduce(g, IrkaConfig(order=n, seed=seed))
        h = res.model
        free_models[n] = h
        gap = compute_gap(g, DelayedModel.undelayed(h), norm_g_sq)
        hi = _impulse_series(DelayedModel.undelayed(h), t)
        mse = float(np.mean((gi - hi) ** 2))
        save_model(os.path.join(outdir, f"free-n{n}-model.json"), h)
        write_csv(os.path.join(outdir, f"impulse-free-n{n}.csv"),
                  ("t", "h"), np.column_stack([t, hi]))
        summary["free"][str(n)] = {"gap": float(gap.j), "mse": mse,
                                   "irka_converged": bool(res.converged)}

    for n in orders_delayed:
        cfg = IoDirkaConfig(
            order=n, outer_max_iters=outer_max,
            irka=IrkaConfig(order=n, seed=seed),
            search=DelaySearchConfig(input_mask=(True,), output_mask=(False,)))
        report = io_dirka(g, cfg)
        hd = report.model
        hi = _impulse_series(hd, t)
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
