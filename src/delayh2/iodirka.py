"""Alternating reduction loop: rational core by IRKA, then delay search.

Each outer iteration rebuilds the delay-advanced surrogate at the current
delays x, reduces it with the interpolatory fixed point (warm-started from
the previous reduced model), then re-optimizes the delays against the new
core, starting from x and from the box the previous search ended in; the
search's output is F(x), and its kernel sum there gives the iterate's gap.
The delays take Broyden steps on phi(x) = F(x) - x (Broyden, Math. Comp.
19, 1965): the next surrogate is built at F(x) - M phi(x), clipped to the
path range and put in the search's gauge, where M = H + I and H estimates
the inverse Jacobian of phi. M starts at zero, so the first step is the
plain step F(x); after that, every outer evaluation updates H by the
"good" inverse rule from the last two points built, and so extrapolates.
The loop stops once the poles and the delays both move by less than
``OUTER_TOL``. One more core reduction at the final delays follows. The
result is ``converged`` only if the loop stopped and the returned model
passes the first-order certificate: every residual of the paper's
optimality conditions (Hermite interpolation at the mirrored poles, one
stationarity condition per delay) is at most ``CERT_RTOL * max(1, ||G||^2)``.
The trace keeps every iterate's delayed model (masks included) with its
gap, so every reported number can be recomputed from it exactly.

On a payload, the run forms what depends only on G's poles mu once: each
exponential vector e^{mu d}, per exact delay value d, serves every
surrogate, delay search, gap and certificate of the run, and each grid
lattice's power tables of mu serve every search on that lattice. They sit
in a bounded memo on the run's own view of G
(:meth:`delayh2.models.PoleResidueModel.with_memo`), which dies with the
run; every sum keeps its arithmetic, so the results are bit for bit those
formed without it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .delayopt import (
    DelaySearchConfig,
    optimize_delays,
    per_channel,
    representative,
    search_domain,
    write_landscape,
)
from .errors import DelayH2Error, check_int
from .h2 import (
    GapValue,
    OptimalityResiduals,
    build_gtilde,
    compute_gap,
    gap_from_cross,
    h2_norm_sq,
    optimality_residuals,
)
from .irka import IrkaConfig, IrkaResult, irka_reduce
from .models import DelayBlock, DelayedModel, PoleResidueModel

# bound on the max first-order residual, relative to max(1, ||G||^2)
CERT_RTOL = 1e-6
# the outer loop stops once the pole and delay movements are both below this
OUTER_TOL = 1e-6


@dataclass(frozen=True)
class IoDirkaConfig:
    """Settings for :func:`io_dirka`.

    The loop stops when both the relative pole-set movement and the delay
    movement fall below ``OUTER_TOL``, or after ``outer_max_iters`` outer
    iterations. Delays start at ``init_input_delays``/``init_output_delays``,
    zero where unset; with every channel delayed they start, like every
    iterate, at the representative with min gamma = 0 (see
    :mod:`delayh2.delayopt`). ``landscape_csv`` receives the last delay
    search's grid scans (see :func:`delayh2.delayopt.write_landscape`).
    ``irka`` holds the core reduction's other settings; its ``order`` must
    equal ``order``, else DelayH2Error.
    """

    order: int
    init_input_delays: tuple | None = None
    init_output_delays: tuple | None = None
    outer_max_iters: int = 50
    irka: IrkaConfig | None = None
    search: DelaySearchConfig | None = None
    landscape_csv: str | None = None

    def __post_init__(self):
        check_int("order", self.order, 1)
        check_int("outer_max_iters", self.outer_max_iters, 1)
        if self.irka is not None and self.irka.order != self.order:
            raise DelayH2Error(f"irka order {self.irka.order} differs from the reduced "
                               f"order {self.order}")


@dataclass(frozen=True)
class TraceEntry:
    """One outer iteration: the delayed model it produced, its gap, its
    core reduction's counts (see :class:`delayh2.irka.IrkaResult`), and
    whether its surrogate was built at a quasi-Newton point, not at the
    previous search output."""

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
    # what every outer iteration forms again from g's poles alone is formed
    # once in this run (see PoleResidueModel.with_memo)
    g = g.with_memo()

    search = cfg.search if cfg.search is not None else DelaySearchConfig()
    in_mask, out_mask, box = search_domain(g, search)
    search = replace(search, input_mask=tuple(in_mask),
                     output_mask=tuple(out_mask), tau_max=box)
    irka_cfg = cfg.irka or IrkaConfig(order=n)

    din, dout = representative(
        DelayBlock(per_channel(g, "init_input_delays", cfg.init_input_delays, 0.0), in_mask),
        DelayBlock(per_channel(g, "init_output_delays", cfg.init_output_delays, 0.0), out_mask))

    norm_g_sq = h2_norm_sq(g)
    trace = []
    stopped = False
    reflections = 0
    prev_model: PoleResidueModel | None = None
    # x: the delays the next surrogate is built at; prev_delays: the last
    # search output; (last_x, last_phi): the previous x and its phi = F(x) - x
    x = prev_delays = np.concatenate([din.as_array(), dout.as_array()])
    last_x = last_phi = None
    # M = H + I for H, Broyden's estimate of the inverse Jacobian of phi
    mix = np.zeros((x.size, x.size))
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
        gap = gap_from_cross(norm_g_sq, found.cross, h)
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
            stopped = pmove < OUTER_TOL and dmove < OUTER_TOL
        prev_model, prev_delays = h, delays_now
        if stopped:
            break

        # Broyden step on phi(x) = F(x) - x, against the slow geometric
        # contraction of the plain outer map F. H = M - I takes the "good"
        # inverse update H += (s - Hy)(s^T H) / (s^T H y), with s and y the
        # steps in x and in phi between the last two points built (skipped
        # when s^T H y is not finite or negligible); the next surrogate is
        # built at x+ = F(x) - M phi(x), clipped and in the search's gauge.
        # Masked coordinates have s = y = phi = 0 and so stay 0; the next
        # delay search re-optimizes globally, so a bad step is undone
        phi = delays_now - x
        if last_x is not None:
            s, y = x - last_x, phi - last_phi
            hy = mix @ y - y
            den = float(s @ hy)
            if np.isfinite(den) \
                    and abs(den) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(hy)):
                mix += np.outer(s - hy, s @ mix - s) / den
        last_x, last_phi = x, phi
        ext = np.clip(delays_now - mix @ phi, 0.0, 2.0 * search.tau_max)
        din, dout = representative(DelayBlock(tuple(ext[: g.nu]), tuple(in_mask)),
                                   DelayBlock(tuple(ext[g.nu:]), tuple(out_mask)))
        x = np.concatenate([din.as_array(), dout.as_array()])
        jumped = not np.array_equal(x, delays_now)

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

