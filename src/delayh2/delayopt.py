"""Delay optimization: maximize the cross inner product over box delays.

The objective sum_j sum_{m,l} K_jml e^{mu_j (gamma_m + tau_l)} oscillates
through the complex poles mu_j, so a single local ascent is not
trustworthy: the search screens a coarse grid over the box [0, tau_max]^k
(joint for up to three searched coordinates, cyclic coordinate scans
above) and refines one start per peak of that screen, a cell at least as
high as every axis neighbour (every neighbour along its line on a cyclic
scan). The TOP_STARTS highest peaks and the caller's start are refined;
neighbouring cells of one peak would all climb to the same maximum. Peaks
are ranked by a stable sort, ties in index order. A refinement step moves
the coordinates not held at a bound, by Newton's step on the analytic
delay Hessian where their block of it is negative definite, and a damped
step otherwise. A Newton step is kept unless it lowers the objective by
more than the rounding bound of the compared values (zero on a payload),
so a start next to a maximum of a cancelling float sum converges instead
of stalling on rounding noise. A start stops once its projected gradient
is below ``REFINE_TOL``.

Each term couples one output delay with one input delay, so the screen
sums ny*nu channel-pair tables: each pair's path function
sum_j K_jml e^{mu_j t} is tabulated once on the lattice of the grid's
common spacing (:meth:`precision.Backend.path_lattice`), in float64 on a
float model and in double-double on a payload, whose cancelling objective
float64 would misrank by O(1). A cell is an index sum whose rounding bound
lies far below the landscape's relief, so the exact kernel ranks only the
peaks within that bound of the best (usually one). When the full model's
payload carries a memo (as in :func:`delayh2.iodirka.io_dirka`, see
:class:`delayh2.precision.TermMemo`), the exponentials e^{mu_j d} of
each exact delay d and the lattice's power tables of mu are taken from it,
so the searches of one run form each of them once.

The box is grown (doubling, up to EXTEND_CAP times its initial size)
while the winner presses against the right boundary with positive
outward derivative, so a too-small default horizon cannot truncate the
optimum. The result reports the box the search ended in, so a caller
running one search after another can start the next from it, and each
face's last grid scan, for :func:`write_landscape`. Ties are broken toward
the lexicographically smallest delay vector; everything is deterministic.

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
import math
from dataclasses import dataclass

import numpy as np

from .errors import DelayH2Error, DimensionMismatch, NonFiniteObjective, check_int
from .h2 import _cross_eval, _cross_tensor, _delayed_terms, _term_sums
from .models import DelayBlock, PoleResidueModel
from .precision import backend_for, lattice_points

# Newton or damped Newton steps per refinement start
MAX_REFINE_ITERS = 100
# a refinement start stops once its projected gradient is below this
REFINE_TOL = 1e-10
# the box grows to at most this multiple of its initial size
EXTEND_CAP = 64.0
# best-ranked screen peaks refined, besides the caller's start
TOP_STARTS = 5
# screen peaks the exact kernel ranks at most, when that many lie within the
# screen's rounding bound of the best
CONFIRM_CAP = 25
# evaluated points whose delayed terms a search keeps for revisits
MEMO_POINTS = 64


@dataclass(frozen=True)
class DelaySearchConfig:
    """Settings for :func:`optimize_delays`.

    ``tau_max=None`` defaults to five times the slowest time constant of the
    full model (5 / min|Re mu|); the box doubles, up to EXTEND_CAP times,
    while the optimum sits on the right boundary with positive gradient,
    and the result reports the box it ended in. ``input_mask`` and
    ``output_mask``, one entry per channel, pin masked-off channels to delay
    0. The grid has ``grid_points_per_channel`` points per box axis, fewer
    when a joint grid would exceed ``joint_grid_budget`` points; its screen
    only picks the refinement starts (see the module docstring). With every
    channel delayed the search returns the representative with min
    gamma = 0, and each input delay then spans the path range
    [0, 2 tau_max] at the same grid spacing.
    """

    grid_points_per_channel: int = 400
    tau_max: float | None = None
    input_mask: tuple | None = None
    output_mask: tuple | None = None
    joint_grid_budget: int = 400_000

    def __post_init__(self):
        check_int("grid_points_per_channel", self.grid_points_per_channel, 2)
        check_int("joint_grid_budget", self.joint_grid_budget, 1)
        if self.tau_max is not None and not 0.0 < self.tau_max < np.inf:
            raise DelayH2Error("tau_max must be positive and finite")


@dataclass(frozen=True)
class DelaySearchResult:
    """What :func:`optimize_delays` found.

    ``tau_max`` is the box the search ended in, after any growth (the
    largest over the gauge faces); ``scans`` holds each face's last grid
    scan as (face objective, grid, screening values), empty when nothing
    was delayable. ``cross`` is the cross kernel's complex sum at the
    returned delays, bit for bit the one :func:`delayh2.h2.compute_gap`
    forms there (see :func:`delayh2.h2.gap_from_cross`).
    """

    input_delays: DelayBlock
    output_delays: DelayBlock
    tau_max: float
    scans: tuple
    cross: complex


def per_channel(g: PoleResidueModel, name: str, values, fill) -> np.ndarray:
    """Setting ``name`` as an array of ``fill``'s type, one entry per input
    (``name`` holds ``input``) or output of ``g``; ``fill`` where unset."""
    side, count = ("input", g.nu) if "input" in name else ("output", g.ny)
    arr = np.full(count, fill) if values is None \
        else np.atleast_1d(np.asarray(values, dtype=type(fill)))
    if arr.shape != (count,):
        raise DimensionMismatch(
            f"{name} has {arr.size} entries for a model with {count} {side}s")
    return arr


def search_domain(g: PoleResidueModel, cfg: DelaySearchConfig):
    """(input mask, output mask, initial box) of a delay search on ``g``.

    Unset masks make every channel delayable; an unset ``tau_max`` is
    5 / min|Re mu|, five of the full model's slowest time constants.
    """
    in_mask = per_channel(g, "input_mask", cfg.input_mask, True)
    out_mask = per_channel(g, "output_mask", cfg.output_mask, True)
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
    tau_max]. Grids are screened by channel-pair lattice tables with a
    stated rounding bound (:meth:`path_screen`); the exact kernel gives
    every value that is kept: the best-ranked peaks, refinement iterates,
    and the returned optimum.
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
        # rounding bound of a float value per unit of its terms' abs-sum, and
        # its largest value at delays >= 0, where no term grows (see rounding)
        self.round_scale = (math.ceil(math.log2(self.k.size)) + 24) * 2.0 ** -53
        self.round_cap = 0.0 if self.hp else self.round_scale * float(np.sum(np.abs(self.k)))
        # (delayed terms, rounding bound) per evaluated point, shared by the
        # gauge faces
        self.terms = {}

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

    def _terms(self, x: np.ndarray) -> tuple:
        # a search revisits points (a line-search value and then its
        # derivatives, a confirmed grid leader as a start, the box check at
        # the winner, the rounding bound of an iterate): their delayed terms
        # are formed once, keyed by the exact delays
        tau, gam = self.full_vectors(x)
        key = tau.tobytes() + gam.tobytes()
        entry = self.terms.get(key)
        if entry is None:
            if len(self.terms) >= MEMO_POINTS:
                del self.terms[next(iter(self.terms))]
            core = _delayed_terms(self.bk, self.mu, self.k, tau, gam, self.g.memo)
            bound = 0.0 if self.hp else self.round_scale * float(np.sum(np.abs(core)))
            entry = self.terms[key] = (core, bound)
        return entry

    def kernel_sum(self, tau: np.ndarray, gam: np.ndarray) -> complex:
        """The complex sum of the delayed terms at full delay vectors
        (tau, gamma), from the memoized terms where the search kept them."""
        entry = self.terms.get(tau.tobytes() + gam.tobytes())
        core = entry[0] if entry is not None \
            else _delayed_terms(self.bk, self.mu, self.k, tau, gam, self.g.memo)
        return _term_sums(self.bk, self.mu, core, 0)[0]

    def _sum(self, x: np.ndarray, order: int):
        # derivatives only for the sides that hold an active coordinate
        sides = (self.act_in.size > 0, self.act_out.size > 0)
        return _term_sums(self.bk, self.mu, self._terms(x)[0], order, sides, self.mu2)

    def rounding(self, x: np.ndarray) -> float:
        """Rounding bound of :meth:`value` at x.

        Float: c u sum_jml |K_jml e^{mu_j (gamma_m + tau_l)}| with
        u = 2^-53, over the n delayed terms. numpy sums a contiguous array
        pairwise (blocks of at most 64 complex values on four accumulators
        per component, halved above that), so each term passes through at
        most ceil(log2 n) + 13 additions of relative error u (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, 4.2). Forming
        a term (two exponentials, two complex products) adds about 11u while
        the exponent mu_j x is of order one; the rounding of a larger
        exponent is not covered. Hence c = ceil(log2 n) + 24. Payload: 0,
        since its sums keep at least 175 bits and their one rounding, to
        binary64, already shows in any comparison of two values.
        """
        return self._terms(x)[1]

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

    def path_screen(self, axes: list[np.ndarray], spacing: float):
        """(screen, bound) of a grid with these axes and common spacing.

        Each channel pair (m, l) contributes Re F_ml(gamma_m + tau_l), with
        F_ml(t) = sum_j K_jml e^{mu_j t}, and every axis point lies within
        rounding of a lattice point a spacing, so a cell's path delay is
        (a + b) spacing plus a tiny offset. ``screen`` takes one subset per
        grid axis and returns the values raveled like ``np.meshgrid(*sub,
        indexing="ij")``, each the in-place sum over pairs of table +
        slope * offset (:meth:`precision.Backend.path_lattice`). ``bound``
        covers the difference from :meth:`value` at any cell: the lattice
        bound, a float value's rounding bound, and 2^-52 (P + 1) times the
        sum of the tables' largest entries for the rounding of the tables,
        the P pair sums, their P - 1 additions and the value's rounding.
        """
        coords = [(self.act_in, 0, self.g.nu), (self.act_out, self.act_in.size, self.g.ny)]
        # the furthest lattice index and offset a path delay reaches
        reach, offset = 0, 0.0
        for act, first, _ in coords:
            points = [lattice_points(a, spacing) for a in axes[first:first + act.size]]
            reach += max((int(i[-1]) for i, _ in points), default=0)
            offset += max((float(np.max(np.abs(d))) for _, d in points), default=0.0)
        table, slope, bound = self.bk.path_lattice(
            self.mu, self.k.reshape(self.mu.size, -1), spacing, reach + 1, offset,
            self.g.memo)
        bound += self.round_cap \
            + 2.0 ** -52 * (table.shape[0] + 1) * float(np.sum(np.max(np.abs(table), axis=1)))

        def screen(sub: list[np.ndarray]) -> np.ndarray:
            shape = [a.size for a in sub]
            # (lattice index, offset) per channel, placed on its grid axis;
            # a masked or pinned channel sits at delay 0
            sides = []
            for act, first, count in coords:
                side = [(0, 0.0)] * count
                for i, c in enumerate(act):
                    place = [1] * len(sub)
                    place[first + i] = shape[first + i]
                    idx, off = lattice_points(sub[first + i], spacing)
                    side[c] = idx.reshape(place), off.reshape(place)
                sides.append(side)
            total = np.zeros(shape)
            for m, (b, db) in enumerate(sides[1]):
                for l, (a, da) in enumerate(sides[0]):
                    p = m * self.g.nu + l
                    total += table[p][a + b] + slope[p][a + b] * (da + db)
            return total.ravel()

        return screen, bound


def _refine(obj: _Objective, x0: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped Newton ascent from x0 within [0, hi]; returns (x, f).

    A step moves the free coordinates (nonzero projected gradient pg): it
    solves (mu I - H) d = pg, H their Hessian block with eigenvalues lambda
    and mu = max(lambda_max, 0) + damp, and clips x + d into the box. damp
    is 0, Newton's step, where lambda_max < -r, r = n 2^-52 max|lambda|
    the rounding level of the n eigenvalues; that step is kept unless it
    lowers f by more than the rounding bound of the two compared values
    (:meth:`_Objective.rounding`), under which the true gain near a maximum
    of a cancelling float sum lies. Otherwise damp carries over from the
    last step, at least r, or starts at 1e-3 max|lambda| (More, 1978), and
    a step is kept if it gains 1e-4 pg.(x+ - x). A refused trial grows
    damp 4-fold (from 0, to 1e-3 max|lambda|), for at most 60 trials, and
    a kept one lowers it 4-fold; each trial is one
    :meth:`_Objective.value_grad_hess`. Stops when the projected gradient
    is below ``REFINE_TOL``, when no trial ascends, or after
    ``MAX_REFINE_ITERS`` steps.
    """
    x = np.clip(np.asarray(x0, dtype=float), 0.0, hi)
    f, grad, hess = obj.value_grad_hess(x)
    damp = 0.0
    for _ in range(MAX_REFINE_ITERS):
        pg = grad.copy()
        pg[(x <= 0.0) & (grad < 0)] = 0.0
        pg[(x >= hi) & (grad > 0)] = 0.0
        if np.max(np.abs(pg), initial=0.0) < REFINE_TOL:
            break
        free = pg != 0.0
        sub = hess[np.ix_(free, free)]
        eigs = np.linalg.eigvalsh(sub)
        scale = float(np.max(np.abs(eigs)))
        # only a curvature beyond eigvalsh's rounding level certifies a local
        # max, and a damping under it could leave the matrix singular
        damp0, tiny = 1e-3 * scale, sub.shape[0] * 2.0 ** -52 * scale
        damp = 0.0 if eigs[-1] < -tiny else max(damp or damp0, tiny)
        for _ in range(60):
            mu = max(float(eigs[-1]), 0.0) + damp
            d = np.zeros_like(x)
            d[free] = np.linalg.solve(mu * np.eye(sub.shape[0]) - sub, pg[free])
            xn = np.clip(x + d, 0.0, hi)
            fn, gn, hn = obj.value_grad_hess(xn)
            kept = fn >= f - (obj.rounding(x) + obj.rounding(xn)) if damp == 0.0 \
                else fn > f + 1e-4 * float(pg @ (xn - x))
            if kept:
                x, f, grad, hess = xn, fn, gn, hn
                damp *= 0.25
                break
            damp = 4.0 * damp if damp else damp0
        else:
            break
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


def _scan(obj: _Objective, k_act: int, tau_max: float, cfg: DelaySearchConfig):
    """Coarse scan: joint grid for <=3 coordinates, cyclic scans above.

    Returns (grid, screening values, peaks, bound) of every evaluated grid
    point. A joint grid is its list of axes, the values raveled like
    ``np.meshgrid(*axes, indexing="ij")``; the cyclic scans give their
    points as rows. The peaks are the indices of the local maxima (see
    :func:`_peaks`): on a joint grid against every axis neighbour, on the
    cyclic scans against the neighbours along each scanned line. ``bound``
    is the screen's rounding bound (:meth:`_Objective.path_screen`).
    """
    axes, spacing = _grid_axes(obj.span, tau_max, cfg)
    screen, bound = obj.path_screen(axes, spacing)
    if k_act <= 3:
        values = screen(axes)
        return axes, values, _peaks(values.reshape([a.size for a in axes])), bound
    # cyclic coordinate scans from the origin, two sweeps
    x = np.zeros(k_act)
    pts, vals, peaks = [], [], []
    count = 0
    for _ in range(2):
        for i in range(k_act):
            block = np.repeat(x[None, :], axes[i].size, axis=0)
            block[:, i] = axes[i]
            v = screen([axes[i] if c == i else x[c:c + 1] for c in range(k_act)])
            pts.append(block)
            vals.append(v)
            peaks.append(_peaks(v) + count)
            count += v.size
            x = block[int(np.argmax(v))].copy()
    return np.concatenate(pts), np.concatenate(vals), np.concatenate(peaks), bound


def _peaks(values: np.ndarray) -> np.ndarray:
    """Flat indices, ascending, of the cells at least as high as every
    neighbour along each axis of ``values``."""
    keep = np.ones(values.shape, dtype=bool)
    for axis in range(values.ndim):
        v = np.moveaxis(values, axis, 0)
        k = np.moveaxis(keep, axis, 0)
        k[1:] &= v[1:] >= v[:-1]
        k[:-1] &= v[:-1] >= v[1:]
    return np.flatnonzero(keep)


def _grid_point(grid: list | np.ndarray, i: int) -> np.ndarray:
    """Point ``i`` of a :func:`_scan` grid, bit for bit its meshgrid row."""
    if isinstance(grid, np.ndarray):
        return grid[i]
    idx = np.unravel_index(i, [a.size for a in grid])
    return np.array([a[j] for a, j in zip(grid, idx)])


def _grid_points(grid: list | np.ndarray) -> np.ndarray:
    """Every point of a :func:`_scan` grid, one row each."""
    if isinstance(grid, np.ndarray):
        return grid
    return np.stack([m.ravel() for m in np.meshgrid(*grid, indexing="ij")], axis=1)


def _top(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, largest first, ties in index order."""
    return np.argsort(-values, kind="stable")[:k]


def write_landscape(path: str, result: DelaySearchResult) -> None:
    """One CSV row per grid point of each face's last scan in ``result``;
    the header alone when nothing was delayable."""
    header = ",".join([f"tau_{i + 1}" for i in range(len(result.input_delays))]
                      + [f"gamma_{i + 1}" for i in range(len(result.output_delays))]
                      + ["objective"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for obj, grid, values in result.scans:
            for p, v in zip(_grid_points(grid), values):
                tau, gam = obj.full_vectors(p)
                row = np.concatenate([tau, gam, [v]])
                fh.write(",".join("%.12e" % c for c in row) + "\n")


def _better(f: float, x: np.ndarray, best_f: float, best_x: np.ndarray) -> bool:
    """Tie rule: higher by 1e-14 relative, or tied and lexicographically smaller."""
    tol = 1e-14 * max(1.0, abs(best_f))
    return f > best_f + tol or (abs(f - best_f) <= tol and tuple(x) < tuple(best_x))


def _search_face(obj: _Objective, tau_max0: float, cfg: DelaySearchConfig,
                 start: tuple | None):
    """Grid scan and refinement over one face, growing its box.

    Returns (x, f, final box, (obj, grid, values) of the last scan).
    """
    k_act = obj.span.size
    tau_max = float(tau_max0)
    while True:
        grid, values, peaks, bound = _scan(obj, k_act, tau_max, cfg)
        if not np.all(np.isfinite(values)):
            raise NonFiniteObjective("grid scan produced non-finite objective values")
        ranked = peaks[_top(values[peaks], CONFIRM_CAP)]
        # only peaks within the screen's rounding bound of the best can be
        # the best: the exact kernel ranks those
        near = ranked[values[ranked] >= values[ranked[0]] - 2.0 * bound]
        exact = np.array([obj.value(_grid_point(grid, i)) for i in near])
        order = np.argsort(-exact, kind="stable")
        grid_best = float(exact[order[0]])
        ranked = np.concatenate([near[order], ranked[near.size:]])
        top = ranked[:TOP_STARTS]
        hi = obj.span * tau_max
        starts = [_grid_point(grid, i) for i in top]
        if start is not None:
            starts.append(np.clip(obj.coords(*start), 0.0, hi))
        # one refinement per distinct start: a cyclic scan's current point
        # lies on every line, and the caller's start may be a peak
        starts = list({x0.tobytes(): x0 for x0 in starts}.values())

        best_x, best_f = None, 0.0
        for x0 in starts:
            x, f = _refine(obj, x0, hi)
            if best_x is None or _better(f, x, best_f, best_x):
                best_x, best_f = x, f

        if best_f < grid_best:
            # refinement can only improve on the best start; keep the grid
            # winner if numerical ties land the other way
            best_x = _grid_point(grid, top[0])
            best_f = grid_best

        if tau_max >= EXTEND_CAP * tau_max0:
            break
        _, grad, _ = obj.value_grad_hess(best_x)
        _, spacing = _grid_axes(obj.span, tau_max, cfg)
        pressing = (best_x >= hi - 2 * spacing) & (grad > 0)
        if not np.any(pressing):
            break
        tau_max *= 2.0
    return best_x, best_f, tau_max, (obj, grid, values)


def optimize_delays(g: PoleResidueModel, h: PoleResidueModel,
                    cfg: DelaySearchConfig, start: tuple | None = None
                    ) -> DelaySearchResult:
    """Find box-constrained delays maximizing the cross inner product.

    The delays are, with every channel delayed, the representative with
    min gamma = 0 (see the module docstring). ``start=(tau, gamma)`` adds
    one refinement start, e.g. the previous outer iteration's delays. The
    returned objective value is >= the grid's best: the exact value at the
    best of the peaks whose screen values lie within twice the screen's
    rounding bound of the largest. Each
    refinement start stops once its projected gradient is below
    ``REFINE_TOL``, or earlier where no step gains more than the
    objective's rounding error (see :func:`_refine`); boundary points may
    carry an outward gradient. All-masked problems return zero delays and
    the initial box immediately.
    """
    in_mask, out_mask, tau_max0 = search_domain(g, cfg)
    act_in = np.flatnonzero(in_mask)
    act_out = np.flatnonzero(out_mask)
    if act_in.size + act_out.size == 0:
        f, _, _, _ = _cross_eval(g, h, np.zeros(g.nu), np.zeros(g.ny))
        return DelaySearchResult(DelayBlock.zeros(g.nu, tuple(in_mask)),
                                 DelayBlock.zeros(g.ny, tuple(out_mask)),
                                 float(tau_max0), (), f)

    obj = _Objective(g, h, act_in, act_out)
    faces = [obj.gauge_face(m) for m in act_out] \
        if has_gauge(in_mask, out_mask) else [obj]
    best, box, scans = None, float(tau_max0), []
    for face in faces:
        x, f, face_box, scan = _search_face(face, tau_max0, cfg, start)
        box = max(box, face_box)
        scans.append(scan)
        full = np.concatenate(face.full_vectors(x))
        if best is None or _better(f, full, *best):
            best = f, full

    tau, gam = best[1][:g.nu], best[1][g.nu:]
    # snap near-zero coordinates produced by clipping
    tau[np.abs(tau) < 1e-300] = 0.0
    gam[np.abs(gam) < 1e-300] = 0.0
    return DelaySearchResult(DelayBlock(tuple(tau), tuple(in_mask)),
                             DelayBlock(tuple(gam), tuple(out_mask)),
                             box, tuple(scans), obj.kernel_sum(tau, gam))
