"""Delay optimization: maximize the cross inner product over box delays.

The objective sum_j sum_{m,l} K_jml e^{mu_j (gamma_m + tau_l)} oscillates
through the complex poles mu_j, so a single local ascent is not
trustworthy: the search runs a coarse grid over the box [0, tau_max]^k
(joint for up to three searched coordinates, cyclic coordinate scans
above), then refines the best few cells with projected gradient ascent
plus a Newton polish using the analytic delay Hessian. Each term couples
one output delay with one input delay, so the grid is screened in float as
a broadcast sum of ny*nu two-axis tables, one matrix product over the poles
each. On a model with an extended-precision payload that float screen can
misrank cells by O(1) (the objective cancels far below binary64), so only
the leaders confirmed with the exact kernel and the refinement are
trusted. The box is grown (doubling, up to EXTEND_CAP times its initial
size) while the winner presses against the right boundary with positive
outward derivative, so a too-small default horizon cannot truncate the
optimum. Ties are broken toward the lexicographically smallest delay
vector; everything is deterministic.

Only the path delays gamma_m + tau_l enter the objective. When every input
and every output channel is delayed, (tau + c, gamma - c) is therefore the
same model, and the delay Hessian is singular along that ridge. The search
then returns the representative with min_m gamma_m = 0, the inputs
absorbing the common delay: it runs one face per output m, with gamma_m
pinned at 0, the other outputs over [0, tau_max] and the inputs over the
path range [0, 2 tau_max], and keeps the best face. The face grids hold
every path-delay combination of the full box grid. Every other mask
pattern has no such ridge and runs as a single face over the box.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DelayH2Error, NonFiniteObjective
from .h2 import _cross_tensor, _delay_sum
from .models import DelayBlock, PoleResidueModel
from .precision import FLOAT, backend_for

# Newton/ascent steps per refinement start
MAX_REFINE_ITERS = 100
# the box grows to at most this multiple of its initial size
EXTEND_CAP = 64.0
# best-ranked grid cells refined, besides the origin and the extra starts
TOP_STARTS = 5


@dataclass(frozen=True)
class DelaySearchConfig:
    """Settings for :func:`optimize_delays`.

    ``tau_max=None`` defaults to five times the slowest time constant of the
    full model (5 / min|Re mu|); with ``extend_box`` the box doubles while
    the optimum sits on the right boundary with positive gradient.
    ``input_mask``/``output_mask`` pin masked-off channels to delay 0.
    ``extra_starts`` adds refinement starts, e.g. the previous outer
    iteration's delays. The grid has ``grid_points_per_channel`` points per
    box axis, fewer when a joint grid would exceed ``joint_grid_budget``
    points; its float screen only ranks refinement starts (see the module
    docstring). With every channel delayed the search returns the
    representative with min gamma = 0, and each input delay then spans the
    path range [0, 2 tau_max] at the same grid spacing.
    """

    grid_points_per_channel: int = 400
    tau_max: float | None = None
    refine_tol: float = 1e-10
    input_mask: tuple | None = None
    output_mask: tuple | None = None
    extend_box: bool = True
    joint_grid_budget: int = 400_000
    extra_starts: tuple = ()
    landscape_csv: str | None = None

    def __post_init__(self):
        if self.grid_points_per_channel < 2:
            raise DelayH2Error("grid_points_per_channel must be at least 2")
        if self.tau_max is not None and not 0.0 < self.tau_max < np.inf:
            raise DelayH2Error("tau_max must be positive and finite")
        if not 0.0 < self.refine_tol < np.inf:
            raise DelayH2Error("refine_tol must be positive and finite")


def search_domain(g: PoleResidueModel, cfg: DelaySearchConfig):
    """(input mask, output mask, initial box) of a delay search on ``g``.

    Unset masks make every channel delayable; an unset ``tau_max`` is
    5 / min|Re mu|, five of the full model's slowest time constants.
    """
    in_mask = np.ones(g.nu, dtype=bool) if cfg.input_mask is None \
        else np.asarray(cfg.input_mask, dtype=bool)
    out_mask = np.ones(g.ny, dtype=bool) if cfg.output_mask is None \
        else np.asarray(cfg.output_mask, dtype=bool)
    tau_max = cfg.tau_max if cfg.tau_max is not None \
        else 5.0 / float(np.min(np.abs(np.real(g.poles))))
    return in_mask, out_mask, tau_max


def has_gauge(in_mask, out_mask) -> bool:
    """Whether every channel is delayed, so that (tau + c, gamma - c) is
    the same model and the search returns the min gamma = 0 representative."""
    return bool(np.all(in_mask) and np.all(out_mask))


def representative(din: DelayBlock, dout: DelayBlock) -> tuple[DelayBlock, DelayBlock]:
    """The same delayed model in the form :func:`optimize_delays` returns.

    With every channel delayed, min gamma moves onto the inputs; any other
    mask pattern is returned unchanged.
    """
    if not has_gauge(din.mask, dout.mask):
        return din, dout
    c = min(dout.delays)
    return (DelayBlock(tuple(din.as_array() + c), din.mask),
            DelayBlock(tuple(dout.as_array() - c), dout.mask))


class _Objective:
    """Objective over the active delay coordinates, with derivatives.

    Active coordinates are the unmasked channels, inputs first; masked
    channels stay pinned at 0. Coordinate c ranges over [0, span[c] *
    tau_max]. Grids are ranked with a float screen built from
    per-channel-pair tables (:meth:`prescreen`); on payload models it can
    misrank cells by O(1), so the exact kernel gives every value that is
    kept: confirmed grid leaders, refinement iterates, and the returned
    optimum.
    """

    def __init__(self, g: PoleResidueModel, h: PoleResidueModel,
                 act_in: np.ndarray, act_out: np.ndarray):
        self.g = g
        self.act_in, self.act_out = act_in, act_out
        self.span = np.ones(act_in.size + act_out.size, dtype=int)
        self.pinned = None
        self.bk = backend_for(g, h)
        self.hp = self.bk.dps is not None
        self.mu, self.k = _cross_tensor(self.bk, g, h)
        with self.bk.context():
            self.mu2 = self.mu * self.mu
        # the screen always runs on the float views
        self.ktensor = _cross_tensor(FLOAT, g, h)[1] if self.hp else self.k

    def gauge_face(self, m: int) -> "_Objective":
        """The face gamma_m = 0 of the gauge, inputs over [0, 2 tau_max]."""
        face = copy.copy(self)
        face.act_out = self.act_out[self.act_out != m]
        face.span = np.concatenate([np.full(self.act_in.size, 2),
                                    np.ones(face.act_out.size, dtype=int)])
        face.pinned = m
        return face

    def coords(self, tau, gam) -> np.ndarray:
        """Active coordinates of delays (tau, gamma), shifted onto the face."""
        tau = np.asarray(tau, dtype=float)
        gam = np.asarray(gam, dtype=float)
        if self.pinned is not None:
            c = gam[self.pinned]
            tau, gam = tau + c, gam - c
        return np.concatenate([tau[self.act_in], gam[self.act_out]])

    def full_vectors(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tau = np.zeros(self.g.nu)
        gam = np.zeros(self.g.ny)
        tau[self.act_in] = x[: self.act_in.size]
        gam[self.act_out] = x[self.act_in.size:]
        return tau, gam

    def _sum(self, x: np.ndarray, order: int):
        # derivatives only for the sides that hold an active coordinate
        sides = (self.act_in.size > 0, self.act_out.size > 0)
        return _delay_sum(self.bk, self.mu, self.k, *self.full_vectors(x),
                          order, sides, self.mu2)

    def value(self, x: np.ndarray) -> float:
        return float(np.real(self._sum(x, 0)[0]))

    def value_grad_hess(self, x: np.ndarray):
        f, g_in, g_out, hess = self._sum(x, 2)
        # hess holds the input side only when an input is active
        offset = self.g.nu if self.act_in.size else 0
        idx = np.concatenate([self.act_in, offset + self.act_out])
        grad = np.concatenate([np.real(d)[act] for d, act in
                               ((g_in, self.act_in), (g_out, self.act_out)) if act.size])
        return float(np.real(f)), grad, np.real(hess)[np.ix_(idx, idx)]

    def prescreen(self, axes: list[np.ndarray]) -> np.ndarray:
        """Float objective on the tensor grid of one axis per active coordinate.

        ``axes`` lists the inputs first; the result is raveled like
        ``np.meshgrid(*axes, indexing="ij")``. Term (m, l) adds the table
        Re[(K[:, m, l] E_m)^T E_l], with E = exp(mu x axis) for an active
        channel and a column of ones for a masked one, broadcast over the
        grid; no intermediate is larger than one such table.
        """
        mu = self.g.poles
        ones = np.ones((mu.size, 1))

        def factors(act: np.ndarray, count: int, first: int) -> list:
            # (E, grid axis) per channel; a masked channel has no axis
            out = [(ones, None)] * count
            for i, c in enumerate(act):
                out[c] = (np.exp(np.outer(mu, axes[first + i])), first + i)
            return out

        ins = factors(self.act_in, self.g.nu, 0)
        outs = factors(self.act_out, self.g.ny, self.act_in.size)
        total = np.zeros([a.size for a in axes])
        for m, (e_out, a_out) in enumerate(outs):
            for l, (e_in, a_in) in enumerate(ins):
                table = np.real((self.ktensor[:, m, l, None] * e_out).T @ e_in)
                # inputs precede outputs on the grid, so place the transpose
                shape = [1] * len(axes)
                if a_in is not None:
                    shape[a_in] = table.shape[1]
                if a_out is not None:
                    shape[a_out] = table.shape[0]
                total += table.T.reshape(shape)
        return total.ravel()


def _refine(obj: _Objective, x0: np.ndarray, hi: np.ndarray,
            cfg: DelaySearchConfig, step0: float) -> tuple[np.ndarray, float]:
    """Projected ascent with Newton polish from x0 within [0, hi]; returns (x, f)."""
    x = np.clip(np.asarray(x0, dtype=float), 0.0, hi)
    f, grad, hess = obj.value_grad_hess(x)
    step = step0
    for _ in range(MAX_REFINE_ITERS):
        pg = grad.copy()
        pg[(x <= 0.0) & (grad < 0)] = 0.0
        pg[(x >= hi) & (grad > 0)] = 0.0
        if np.max(np.abs(pg), initial=0.0) < cfg.refine_tol:
            break
        moved = False
        # Newton step when the curvature certifies a local max
        try:
            eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
            if np.max(eigs) < 0:
                xn = np.clip(x + np.linalg.solve(-hess, grad), 0.0, hi)
                fn, gn, hn = obj.value_grad_hess(xn)
                if fn >= f:
                    x, f, grad, hess = xn, fn, gn, hn
                    moved = True
        except np.linalg.LinAlgError:
            pass
        if not moved:
            # scale so the first trial moves ~step along the steepest axis,
            # growing on clean accepts so distant starts traverse quickly
            t = step / max(float(np.max(np.abs(pg))), 1e-300)
            gnorm2 = float(pg @ pg)
            halvings = 0
            for _ in range(60):
                xn = np.clip(x + t * pg, 0.0, hi)
                fn = obj.value(xn)
                if fn > f + 1e-4 * t * gnorm2:
                    fn, gn, hn = obj.value_grad_hess(xn)
                    x, f, grad, hess = xn, fn, gn, hn
                    moved = True
                    break
                t *= 0.5
                halvings += 1
            if not moved:
                break
            step = min(step * 2.0, float(np.max(hi))) if halvings == 0 \
                else max(step * 0.5 ** halvings, step0)
    return x, f


def _grid_axes(span: np.ndarray, tau_max: float,
               cfg: DelaySearchConfig) -> tuple[list, float]:
    """(one axis per coordinate over [0, span[c] * tau_max], common spacing).

    A box axis has ``grid_points_per_channel`` points, fewer when the joint
    grid (one axis alone included) would exceed ``joint_grid_budget`` points.
    """
    per_axis = min(cfg.grid_points_per_channel, max(2, int(
        (cfg.joint_grid_budget / np.prod(span)) ** (1.0 / span.size))))
    axes = [np.linspace(0.0, s * tau_max, s * (per_axis - 1) + 1) for s in span]
    return axes, tau_max / (per_axis - 1)


def _scan(obj: _Objective, k_act: int, tau_max: float,
          cfg: DelaySearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coarse scan: joint grid for <=3 coordinates, cyclic scans above.

    Returns (points, screening values) of every evaluated grid point; the
    values rank cells for refinement and are float-precision.
    """
    axes, _ = _grid_axes(obj.span, tau_max, cfg)
    if k_act <= 3:
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        return points, obj.prescreen(axes)
    # cyclic coordinate scans from the origin, two sweeps
    x = np.zeros(k_act)
    pts, vals = [], []
    for _ in range(2):
        for i in range(k_act):
            block = np.repeat(x[None, :], axes[i].size, axis=0)
            block[:, i] = axes[i]
            v = obj.prescreen([axes[i] if c == i else x[c:c + 1]
                               for c in range(k_act)])
            pts.append(block)
            vals.append(v)
            x = block[int(np.argmax(v))].copy()
    return np.concatenate(pts), np.concatenate(vals)


def _write_landscape(path: str, scans: list) -> None:
    """One CSV row per grid point of every (face, points, values) scan."""
    g = scans[0][0].g
    header = ",".join([f"tau_{i + 1}" for i in range(g.nu)]
                      + [f"gamma_{i + 1}" for i in range(g.ny)] + ["objective"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for obj, points, values in scans:
            for p, v in zip(points, values):
                tau, gam = obj.full_vectors(p)
                row = np.concatenate([tau, gam, [v]])
                fh.write(",".join("%.12e" % c for c in row) + "\n")


def _better(f: float, x: np.ndarray, best_f: float, best_x: np.ndarray) -> bool:
    """Tie rule: higher by 1e-14 relative, or tied and lexicographically smaller."""
    tol = 1e-14 * max(1.0, abs(best_f))
    return f > best_f + tol or (abs(f - best_f) <= tol and tuple(x) < tuple(best_x))


def _search_face(obj: _Objective, tau_max0: float, cfg: DelaySearchConfig):
    """Grid scan and refinement over one face, growing its box.

    Returns (x, f, (obj, points, values) of the last scan).
    """
    k_act = obj.span.size
    tau_max = float(tau_max0)
    while True:
        points, values = _scan(obj, k_act, tau_max, cfg)
        if not np.all(np.isfinite(values)):
            raise NonFiniteObjective("grid scan produced non-finite objective values")
        n_top = min(TOP_STARTS, values.size)
        if obj.hp:
            # screening is float-precision: confirm the leading cells with
            # the exact kernel before ranking and bounding against them
            lead = np.argsort(-values, kind="stable")[:max(n_top, min(25, values.size))]
            exact = np.array([obj.value(points[i]) for i in lead])
            order = np.argsort(-exact, kind="stable")
            grid_best = float(exact[order[0]])
            top = lead[order[:n_top]]
            grid_argbest = int(lead[order[0]])
        else:
            grid_best = float(np.max(values))
            top = np.argsort(-values, kind="stable")[:n_top]
            grid_argbest = int(np.argmax(values))
        hi = obj.span * tau_max
        starts = [points[i] for i in top]
        starts.append(np.zeros(k_act))
        for tau_extra, gam_extra in cfg.extra_starts:
            starts.append(np.clip(obj.coords(tau_extra, gam_extra), 0.0, hi))

        _, spacing = _grid_axes(obj.span, tau_max, cfg)
        best_x, best_f = None, 0.0
        for x0 in starts:
            x, f = _refine(obj, x0, hi, cfg, step0=spacing)
            if best_x is None or _better(f, x, best_f, best_x):
                best_x, best_f = x, f

        if best_f < grid_best:
            # refinement can only improve on the best start; keep the grid
            # winner if numerical ties land the other way
            best_x = points[grid_argbest]
            best_f = grid_best

        if not cfg.extend_box or tau_max >= EXTEND_CAP * tau_max0:
            break
        _, grad, _ = obj.value_grad_hess(best_x)
        pressing = (best_x >= hi - 2 * spacing) & (grad > 0)
        if not np.any(pressing):
            break
        tau_max *= 2.0
    return best_x, best_f, (obj, points, values)


def optimize_delays(g: PoleResidueModel, h: PoleResidueModel,
                    cfg: DelaySearchConfig) -> tuple[DelayBlock, DelayBlock]:
    """Find box-constrained delays maximizing the cross inner product.

    Returns (input delays, output delays); with every channel delayed, the
    representative with min gamma = 0 (see the module docstring). The
    returned objective value is >= every evaluated grid sample, and at an
    interior optimum the delay gradient norm is below ``refine_tol``
    (boundary points may carry an outward gradient). All-masked problems
    return zero delays immediately.
    """
    in_mask, out_mask, tau_max0 = search_domain(g, cfg)
    act_in = np.flatnonzero(in_mask)
    act_out = np.flatnonzero(out_mask)
    if act_in.size + act_out.size == 0:
        return (DelayBlock.zeros(g.nu, tuple(in_mask)),
                DelayBlock.zeros(g.ny, tuple(out_mask)))

    obj = _Objective(g, h, act_in, act_out)
    faces = [obj.gauge_face(m) for m in act_out] \
        if has_gauge(in_mask, out_mask) else [obj]
    best, scans = None, []
    for face in faces:
        x, f, scan = _search_face(face, tau_max0, cfg)
        scans.append(scan)
        full = np.concatenate(face.full_vectors(x))
        if best is None or _better(f, full, *best):
            best = f, full
    if cfg.landscape_csv:
        _write_landscape(cfg.landscape_csv, scans)

    tau, gam = best[1][:g.nu], best[1][g.nu:]
    # snap near-zero coordinates produced by clipping
    tau[np.abs(tau) < 1e-300] = 0.0
    gam[np.abs(gam) < 1e-300] = 0.0
    return (DelayBlock(tuple(tau), tuple(in_mask)),
            DelayBlock(tuple(gam), tuple(out_mask)))
