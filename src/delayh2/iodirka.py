"""Alternating reduction loop: rational core by IRKA, then delay search.

Each outer iteration rebuilds the delay-advanced surrogate from the current
delays, reduces it with the interpolatory fixed point (warm-started from the
previous reduced model), then re-optimizes the delays against the new core,
starting from the current delays and from the box the previous search ended
in. The delays take Steffensen steps on that outer map F: from a point x
the loop runs F twice, then jumps to the Aitken limit of x, F(x), F(F(x)),
which starts the next triple. The loop stops once both the poles and the
delays stop moving. One more core reduction at the final delays follows.
The result is ``converged`` only if the loop stopped and the returned
model passes the first-order certificate: every residual of the paper's
optimality conditions (Hermite interpolation at the mirrored poles, one
stationarity condition per delay) is at most
``CERT_RTOL * max(1, ||G||^2)``. The trace keeps every iterate's delayed
model (masks included) with its gap, so every reported number can be
recomputed from it exactly.

The jump is :func:`delayh2.irka.aitken_delta2`, the Delta-squared rule
that IRKA's shift iteration uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .delayopt import (
    DelaySearchConfig,
    optimize_delays,
    representative,
    search_domain,
    write_landscape,
)
from .errors import DelayH2Error
from .h2 import (
    GapValue,
    OptimalityResiduals,
    build_gtilde,
    compute_gap,
    h2_norm_sq,
    optimality_residuals,
)
from .irka import IrkaConfig, IrkaResult, aitken_delta2, irka_reduce
from .models import DelayBlock, DelayedModel, PoleResidueModel

# bound on the max first-order residual, relative to max(1, ||G||^2)
CERT_RTOL = 1e-6


@dataclass(frozen=True)
class IoDirkaConfig:
    """Settings for :func:`io_dirka`.

    The loop stops when both the relative pole-set movement and the delay
    movement fall below ``outer_tol``, or after ``outer_max_iters`` outer
    iterations. Delays start at ``init_input_delays``/``init_output_delays``,
    zero where unset; with every channel delayed they start, like every
    iterate, at the representative with min gamma = 0 (see
    :mod:`delayh2.delayopt`). ``landscape_csv`` receives the last delay
    search's grid scans (see :func:`delayh2.delayopt.write_landscape`).
    """

    order: int
    init_input_delays: tuple | None = None
    init_output_delays: tuple | None = None
    outer_max_iters: int = 50
    outer_tol: float = 1e-6
    irka: IrkaConfig | None = None
    search: DelaySearchConfig | None = None
    landscape_csv: str | None = None

    def __post_init__(self):
        if self.order < 1:
            raise DelayH2Error("reduced order must be at least 1")
        if self.outer_max_iters < 1 or not 0.0 < self.outer_tol < np.inf:
            raise DelayH2Error("outer iteration settings must be positive and finite")


@dataclass(frozen=True)
class TraceEntry:
    """One outer iteration: the delayed model it produced, its gap, its
    core reduction's counts (see :class:`delayh2.irka.IrkaResult`), and
    whether its surrogate was built at an Aitken-extrapolated delay."""

    outer: int
    model: DelayedModel
    gap: GapValue
    irka_iterations: int
    irka_converged: bool
    irka_jumps: int
    irka_reflections: int
    delay_jump: bool


@dataclass(frozen=True)
class ReductionReport:
    model: DelayedModel
    gap: GapValue
    residuals: OptimalityResiduals
    outer_iterations: int
    trace: tuple
    converged: bool
    norm_g_sq: float
    total_reflections: int


def io_dirka(g: PoleResidueModel, cfg: IoDirkaConfig) -> ReductionReport:
    """Reduce ``g`` to a delayed model of the configured order.

    Alternates surrogate reduction and delay search until poles and delays
    stop moving, then re-reduces the core at the final delays. On hitting
    ``outer_max_iters`` the lowest-gap iterate is used instead. ``converged``
    is True only if the loop stopped and the returned model's max
    first-order residual is at most ``CERT_RTOL * max(1, ||G||^2)``.
    """
    n = int(cfg.order)
    if not 1 <= n <= g.order:
        raise DelayH2Error(f"reduced order {n} outside [1, {g.order}]")

    search = cfg.search if cfg.search is not None else DelaySearchConfig()
    in_mask, out_mask, box = search_domain(g, search)
    search = replace(search, input_mask=tuple(in_mask),
                     output_mask=tuple(out_mask), tau_max=box)
    irka_cfg = cfg.irka if cfg.irka is not None else IrkaConfig(order=n)
    if irka_cfg.order != n:
        irka_cfg = replace(irka_cfg, order=n)

    din, dout = representative(
        DelayBlock(cfg.init_input_delays or (0.0,) * g.nu, tuple(in_mask)),
        DelayBlock(cfg.init_output_delays or (0.0,) * g.ny, tuple(out_mask)))

    norm_g_sq = h2_norm_sq(g)
    trace = []
    stopped = False
    reflections = 0
    prev_model: PoleResidueModel | None = None
    prev_delays = np.concatenate([din.as_array(), dout.as_array()])
    # the points of the next Aitken triple: where a surrogate was built,
    # then the delay search's outputs from there
    hist = [prev_delays]
    jumped = False

    for outer in range(1, cfg.outer_max_iters + 1):
        gt = build_gtilde(g, din, dout)
        try:
            res: IrkaResult = irka_reduce(gt, irka_cfg, prev_model)
        except DelayH2Error as exc:
            raise type(exc)(f"outer iteration {outer}: {exc}") from exc
        reflections += res.reflections
        h = res.model
        # drop the previous search's grid screen before the next one runs
        found = None
        try:
            found = optimize_delays(g, h, search, start=(din.delays, dout.delays))
        except DelayH2Error as exc:
            raise type(exc)(f"outer iteration {outer}: {exc}") from exc
        din, dout = found.input_delays, found.output_delays
        # the next search starts from the box this one grew into
        search = replace(search, tau_max=found.tau_max)
        hd = DelayedModel(h, din, dout)
        gap = compute_gap(g, hd, norm_g_sq)
        trace.append(TraceEntry(outer=outer, model=hd, gap=gap,
                                irka_iterations=res.iterations,
                                irka_converged=res.converged,
                                irka_jumps=res.jumps,
                                irka_reflections=res.reflections,
                                delay_jump=jumped))

        delays_now = np.concatenate([din.as_array(), dout.as_array()])
        if prev_model is not None:
            pmove = float(np.max(np.abs(h.poles - prev_model.poles))) \
                / max(float(np.max(np.abs(prev_model.poles))), 1e-300)
            dmove = float(np.max(np.abs(delays_now - prev_delays), initial=0.0)) \
                / max(float(np.max(np.abs(prev_delays), initial=0.0)), 1.0)
            stopped = pmove < cfg.outer_tol and dmove < cfg.outer_tol
        prev_model, prev_delays = h, delays_now
        if stopped:
            break

        # Steffensen step on the delay vector, against the slow geometric
        # contraction of the plain outer map F: the triple is x, F(x),
        # F(F(x)) with x the point the last jump landed on (at first, the
        # initial delays), and the history restarts at the jump, in the
        # search's gauge; the next delay search re-optimizes globally, so
        # a bad jump is undone
        hist.append(delays_now)
        jumped = len(hist) == 3
        if jumped:
            ext = np.clip(aitken_delta2(*hist), 0.0, 2.0 * search.tau_max)
            din, dout = representative(DelayBlock(tuple(ext[: g.nu]), tuple(in_mask)),
                                       DelayBlock(tuple(ext[g.nu:]), tuple(out_mask)))
            hist = [np.concatenate([din.as_array(), dout.as_array()])]

    if cfg.landscape_csv:
        write_landscape(cfg.landscape_csv, found)
    del found

    hd = (trace[-1] if stopped else min(trace, key=lambda e: e.gap.j)).model
    gt = build_gtilde(g, hd.input_delays, hd.output_delays)
    res = irka_reduce(gt, irka_cfg, hd.core)
    reflections += res.reflections
    hd = DelayedModel(res.model, hd.input_delays, hd.output_delays)

    gap = compute_gap(g, hd, norm_g_sq)
    residuals = optimality_residuals(g, hd)
    converged = stopped and residuals.max_residual() \
        <= CERT_RTOL * max(1.0, float(norm_g_sq))
    return ReductionReport(model=hd, gap=gap, residuals=residuals,
                           outer_iterations=len(trace), trace=tuple(trace),
                           converged=converged, norm_g_sq=float(norm_g_sq),
                           total_reflections=reflections)

