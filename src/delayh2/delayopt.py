"""Delay optimization: maximize the cross inner product over box delays.

The objective sum_j sum_{m,l} K_jml e^{mu_j (gamma_m + tau_l)} oscillates
through the complex poles mu_j, so a single local ascent is not
trustworthy: the search screens a coarse grid over the box [0, tau_max]^k
and refines one start per peak of that screen, a cell at least as high as
every axis neighbour. How the grid is screened depends on the face (see
:func:`_scan`). With only inputs or only outputs searched, each channel
pair's term depends on one coordinate, so the landscape is a sum of
one-dimensional path functions and its peaks are the products of the peaks
of its axis lines: each axis is screened as a line, summing only the pairs
that hold it, and the joint screen runs only on the product of each line's
CONFIRM_CAP highest peaks. A face with both an input and an output
searched is coupled through every pair and screens its whole joint grid,
with fewer points per axis where it would exceed ``JOINT_GRID_BUDGET``
cells (refused past it at two points per axis, see :func:`search_domain`). The
TOP_STARTS highest peaks and the caller's start are refined; neighbouring
cells of one peak would all climb to the same maximum. Peaks are ranked by
a stable sort, ties in index order. A refinement step moves the
coordinates not held at a bound, by Newton's step on the analytic delay
Hessian where their block of it is negative definite, and a damped step
otherwise. A Newton step is kept unless it lowers the objective by more
than the rounding bound of the compared values (zero on a payload), so a
start next to a maximum of a cancelling float sum converges instead of
stalling on rounding noise. A start stops once its projected gradient is
below ``REFINE_TOL``.

Each term couples one output delay with one input delay, so the screen
sums ny*nu channel-pair tables: each pair's path function
sum_j K_jml e^{mu_j t} is tabulated once on the lattice of the grid's
common spacing (:meth:`precision.Backend.path_lattice`), in float64 on a
float model and in double-double on a payload, whose cancelling objective
float64 would misrank by O(1). A cell is an index sum whose rounding bound
lies far below the landscape's relief, so the exact kernel ranks only the
peaks within that bound of the best (usually one); each of those
evaluations, with derivatives, is also the first of its start's
refinement, the winner's complex sum is the result's ``cross``, and its
gradient decides the box growth, so a search repeats no evaluation it has
made (two starts that climb to the same point still both evaluate it). When
the full model's
payload carries a memo (as in :func:`delayh2.iodirka.io_dirka`, see
:class:`delayh2.precision.TermMemo`), the exponentials e^{mu_j d} of
each exact delay d and the lattice's power tables of mu are taken from it,
so the searches of one run form each of them once; the search itself
keeps no state per point.

The box is grown (doubling, up to EXTEND_CAP times its initial size) while
the winner presses against the right boundary with positive outward
derivative, so a too-small default horizon cannot truncate the optimum,
short of a box binary64 cannot screen (:func:`box_fits`). The result
reports the box the search ended in, so a caller running one search after
another can start the next from it, and each face's last grid screen as
its axes and screen function, from which :func:`write_landscape` forms the
whole grid's values. Ties are broken toward the lexicographically smallest delay
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
import math
import numbers
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
# cells a face's joint grid holds at most (see _grid_axes and search_domain)
JOINT_GRID_BUDGET = 400_000


@dataclass(frozen=True)
class DelaySearchConfig:
    """Settings for :func:`optimize_delays`.

    ``tau_max=None`` defaults to five times the slowest time constant of
    the full model (5 / min|Re mu|); the box doubles, up to EXTEND_CAP
    times, while the optimum sits on the right boundary with positive
    gradient, and the result reports the box it ended in. ``input_mask``
    and ``output_mask``, one entry per channel, pin masked-off channels
    to delay 0. The grid has ``grid_points_per_channel`` points per box
    axis, fewer when a joint grid would exceed ``JOINT_GRID_BUDGET``
    cells; :func:`search_domain` refuses a box or face the search
    cannot screen. Its screen only picks the refinement starts (see the
    module docstring). With every channel delayed the search returns the
    representative with min gamma = 0, and each input delay then spans
    the path range [0, 2 tau_max] at the same grid spacing.
    """

    grid_points_per_channel: int = 400
    tau_max: float | None = None
    input_mask: tuple | None = None
    output_mask: tuple | None = None

    @property
    def joint_grid_budget(self) -> int:
        """``JOINT_GRID_BUDGET``, read by ``perfbench/tracing.py``."""
        return JOINT_GRID_BUDGET

    def __post_init__(self):
        check_int("grid_points_per_channel", self.grid_points_per_channel, 2)
        if self.tau_max is not None:
            check_kind("tau_max", self.tau_max, 0.0)
            if not 0.0 < self.tau_max < np.inf:
                raise DelayH2Error("tau_max must be positive and finite")


@dataclass(frozen=True)
class DelaySearchResult:
    """What :func:`optimize_delays` found.

    ``tau_max`` is the box the search ended in, after any growth (the
    largest over the gauge faces); ``scans`` holds each face's last grid
    screen as (face objective, grid axes, screen), empty when nothing was
    delayable; ``screen(axes)`` forms the whole grid's screening values
    (see :meth:`_Objective.path_screen`). ``cross`` is the
    cross kernel's complex sum at the returned delays, the winner's
    own evaluation, bit for bit the one :func:`delayh2.h2.compute_gap`
    forms there (see :func:`delayh2.h2.gap_from_cross`).
    """

    input_delays: DelayBlock
    output_delays: DelayBlock
    tau_max: float
    scans: tuple
    cross: complex


def check_kind(name: str, value, fill) -> None:
    """DelayH2Error naming the setting ``name`` unless ``value`` is a bool
    (Python or numpy) where ``fill`` is one, else a real number, not a bool."""
    flag = isinstance(fill, bool)
    if isinstance(value, (bool, np.bool_)) != flag or not (flag or isinstance(value, numbers.Real)):
        raise DelayH2Error(f"{name} {value!r} is not {'a boolean' if flag else 'a real number'}")


def per_channel(g: PoleResidueModel, name: str, values, fill) -> np.ndarray:
    """Setting ``name`` as an array of ``fill``'s type, one entry per input
    (``name`` holds ``input``) or output of ``g``; ``fill`` where unset.
    Each entry must be of ``fill``'s kind (:func:`check_kind`)."""
    side, count = ("input", g.nu) if "input" in name else ("output", g.ny)
    if values is None:
        return np.full(count, fill)
    arr = np.atleast_1d(np.asarray(values, dtype=object))
    for v in arr.flat:
        check_kind(name, v, fill)
    if arr.shape != (count,):
        raise DimensionMismatch(
            f"{name} has {arr.size} entries for a model with {count} {side}s")
    return arr.astype(type(fill))


def search_domain(g: PoleResidueModel, cfg: DelaySearchConfig):
    """(input mask, output mask, initial box) of a delay search on ``g``.

    Unset masks make every channel delayable; an unset ``tau_max`` is
    5 / min|Re mu|, five of the full model's slowest time constants.
    Refused by name: a box whose screen binary64 cannot hold
    (:func:`box_fits`), and a coupled face whose joint grid, exponential in
    the channels, exceeds ``JOINT_GRID_BUDGET`` cells even at two points per
    axis.
    """
    in_mask = per_channel(g, "input_mask", cfg.input_mask, True)
    out_mask = per_channel(g, "output_mask", cfg.output_mask, True)
    tau_max = cfg.tau_max if cfg.tau_max is not None \
        else 5.0 / float(np.min(np.abs(np.real(g.poles))))
    span, n_in = face_span(in_mask, out_mask), int(np.sum(in_mask))
    if not box_fits(g, span, n_in, tau_max):
        raise DelayH2Error(f"tau_max {tau_max:g} is too large: the delay screen's "
                           "exponents mu t overflow binary64")
    cells = math.prod(a.size for a in _grid_axes(span, 1.0, cfg)[0]) if 0 < n_in < span.size else 0
    if cells > JOINT_GRID_BUDGET:
        raise DelayH2Error(f"a coupled face of {span.size} delays needs {cells} grid cells, "
                           f"over joint_grid_budget {JOINT_GRID_BUDGET}; delay fewer channels")
    return in_mask, out_mask, tau_max


def face_span(in_mask, out_mask) -> np.ndarray:
    """Each searched coordinate's range in boxes, inputs first, on every face
    of a search with these masks (see :meth:`_Objective.gauge_face`)."""
    gauge = has_gauge(in_mask, out_mask)
    return np.concatenate([np.full(np.sum(in_mask), 1 + gauge),
                           np.ones(np.sum(out_mask) - gauge, int)])


def box_fits(g: PoleResidueModel, span: np.ndarray, n_in: int, tau_max: float) -> bool:
    """Whether binary64 holds the exponents mu_j t of a face's screen over the
    box ``tau_max`` (:meth:`precision.Backend.path_lattice`): t reaches the
    largest span of the ``n_in`` inputs plus the largest output span, in boxes."""
    reach = max(span[:n_in], default=0) + max(span[n_in:], default=0)
    return math.isfinite(int(reach) * float(tau_max) * float(np.max(np.abs(g.poles))))


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
    tau_max] (:func:`face_span`). Grids are screened by channel-pair
    lattice tables with a stated rounding bound (:meth:`path_screen`); the
    exact kernel (:meth:`value_grad_hess`) gives every value that is kept:
    the best-ranked peaks, refinement iterates, and the returned optimum. It
    keeps no state per point: each evaluation forms its delayed terms
    (exponentials from the payload's memo, if any).
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
        # rounding bound of a float value per unit of its terms' abs-sum (see
        # value_grad_hess), and its largest value at delays >= 0, where no term grows
        self.round_scale = (math.ceil(math.log2(self.k.size)) + 24) * 2.0 ** -53
        self.round_cap = 0.0 if self.hp else self.round_scale * float(np.sum(np.abs(self.k)))

    def gauge_face(self, m: int) -> "_Objective":
        """The face gamma_m = 0 of the gauge, inputs over [0, 2 tau_max]; the
        faces share only the kernel data."""
        face = copy.copy(self)
        face.act_out = self.act_out[self.act_out != m]
        face.span = face_span(self.g.nu * [True], self.g.ny * [True])
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

    def _sum(self, x: np.ndarray):
        """(delayed terms at x, their sums up to the second derivative)."""
        core = _delayed_terms(self.bk, self.mu, self.k, *self.full_vectors(x), self.g.memo)
        # derivatives only for the sides that hold an active coordinate
        sides = (self.act_in.size > 0, self.act_out.size > 0)
        return core, _term_sums(self.bk, self.mu, core, 2, sides, self.mu2)

    def value_grad_hess(self, x: np.ndarray):
        """(value, gradient, Hessian, rounding bound of the value, complex
        sum) at x; the value is the sum's real part.

        The bound, for a float model: c u sum_jml |K_jml e^{mu_j (gamma_m +
        tau_l)}| with u = 2^-53, over the n delayed terms. numpy sums a
        contiguous array pairwise (blocks of at most 64 complex values on
        four accumulators per component, halved above that), so each term
        passes through at most ceil(log2 n) + 13 additions of relative
        error u (Higham, Accuracy and Stability of Numerical Algorithms,
        2002, 4.2). Forming a term (two exponentials, two complex products)
        adds about 11u while the exponent mu_j x is of order one; the
        rounding of a larger exponent is not covered. Hence c = ceil(log2
        n) + 24. Payload: 0, since its sums keep at least 175 bits and
        their one rounding, to binary64, already shows in any comparison
        of two values.
        """
        core, (f, g_in, g_out, hess) = self._sum(x)
        # hess holds the input side only when an input is active
        offset = self.g.nu if self.act_in.size else 0
        idx = np.concatenate([self.act_in, offset + self.act_out])
        grad = np.concatenate([np.real(d)[act] for d, act in
                               ((g_in, self.act_in), (g_out, self.act_out)) if act.size])
        bound = 0.0 if self.hp else self.round_scale * float(np.sum(np.abs(core)))
        return float(np.real(f)), grad, np.real(hess)[np.ix_(idx, idx)], bound, f

    def path_screen(self, axes: list[np.ndarray], spacing: float):
        """(screen, bound) of a grid with these axes and common spacing.

        Each channel pair (m, l) contributes Re F_ml(gamma_m + tau_l), with
        F_ml(t) = sum_j K_jml e^{mu_j t}, and every axis point lies within
        rounding of a lattice point a spacing, so a cell's path delay is
        (a + b) spacing plus a tiny offset. ``screen`` takes one subset per
        grid axis and returns the values raveled like ``np.meshgrid(*sub,
        indexing="ij")``, each the in-place sum over pairs of table +
        slope * offset (:meth:`precision.Backend.path_lattice`), over only
        the pairs with a channel on grid axis ``axis`` when one is given; a
        non-finite value raises NonFiniteObjective. ``bound``
        covers the difference from the exact value at any cell: the lattice
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

        def screen(sub: list[np.ndarray], axis: int | None = None) -> np.ndarray:
            shape = [a.size for a in sub]
            # (lattice index, offset, grid axis) per channel, placed on its
            # grid axis; a masked or pinned channel sits at delay 0
            sides = []
            for act, first, count in coords:
                side = [(0, 0.0, None)] * count
                for i, c in enumerate(act):
                    place = [1] * len(sub)
                    place[first + i] = shape[first + i]
                    idx, off = lattice_points(sub[first + i], spacing)
                    side[c] = idx.reshape(place), off.reshape(place), first + i
                sides.append(side)
            total = np.zeros(shape)
            for m, (b, db, on_m) in enumerate(sides[1]):
                for l, (a, da, on_l) in enumerate(sides[0]):
                    if axis in (None, on_l, on_m):
                        p = m * self.g.nu + l
                        total += table[p][a + b] + slope[p][a + b] * (da + db)
            if not np.all(np.isfinite(total)):
                raise NonFiniteObjective("grid scan produced non-finite objective values")
            return total.ravel()

        return screen, bound


def _refine(obj: _Objective, x0: np.ndarray, hi: np.ndarray, first=None):
    """Damped Newton ascent from x0 within [0, hi]; returns (x, f,
    gradient, complex sum) at the last kept iterate. ``first`` is the
    evaluation at x0 when the caller has made it already.

    A step moves the free coordinates (nonzero projected gradient pg): it
    solves (mu I - H) d = pg, H their Hessian block with eigenvalues lambda
    and mu = max(lambda_max, 0) + damp, and clips x + d into the box. damp
    is 0, Newton's step, where lambda_max < -r, r = n 2^-52 max|lambda|
    the rounding level of the n eigenvalues; that step is kept unless it
    lowers f by more than the rounding bound of the two compared values
    (the fourth element of :meth:`_Objective.value_grad_hess`, kept beside
    f), under which the true gain near a maximum of a cancelling float sum
    lies. Otherwise damp carries over from the last step, at least r, or
    starts at 1e-3 max|lambda| (More, 1978), and a step is kept if it gains
    1e-4 pg.(x+ - x). A refused trial grows damp 4-fold (from 0, to 1e-3
    max|lambda|), for at most 60 trials, and a kept one lowers it 4-fold;
    each trial is one :meth:`_Objective.value_grad_hess`. Stops when the
    projected gradient is below ``REFINE_TOL``, when no trial ascends, or
    after ``MAX_REFINE_ITERS`` steps.
    """
    x = np.clip(np.asarray(x0, dtype=float), 0.0, hi)
    f, grad, hess, err, total = first or obj.value_grad_hess(x)
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
            fn, gn, hn, err_n, total_n = obj.value_grad_hess(xn)
            kept = fn >= f - (err + err_n) if damp == 0.0 \
                else fn > f + 1e-4 * float(pg @ (xn - x))
            if kept:
                x, f, grad, hess, err, total = xn, fn, gn, hn, err_n, total_n
                damp *= 0.25
                break
            damp = 4.0 * damp if damp else damp0
        else:
            break
    return x, f, grad, total


def _grid_axes(span: np.ndarray, tau_max: float,
               cfg: DelaySearchConfig) -> tuple[list, float]:
    """(one axis per coordinate over [0, span[c] * tau_max], common spacing).

    A box axis has ``grid_points_per_channel`` points, fewer (at least 2)
    when the joint grid (one axis alone included) would exceed
    ``JOINT_GRID_BUDGET`` points.
    """
    per_axis = min(cfg.grid_points_per_channel, max(2, int(
        (JOINT_GRID_BUDGET / np.prod(span)) ** (1.0 / span.size))))
    axes = [np.linspace(0.0, s * tau_max, s * (per_axis - 1) + 1) for s in span]
    return axes, tau_max / (per_axis - 1)


def _scan(obj: _Objective, tau_max: float, cfg: DelaySearchConfig):
    """Coarse screen of the face's grid (:func:`_grid_axes`).

    Returns (grid, screening values, peaks, bound, landscape). ``grid`` is
    a list of axes, its values raveled like ``np.meshgrid(*axes,
    indexing="ij")``; the peaks are indices of local maxima (see
    :func:`_peaks`), and ``bound`` is the screen's rounding bound
    (:meth:`_Objective.path_screen`). By face:

    * Per-axis, where only inputs or only outputs are searched (at least
      two coordinates): a pair's term then depends on one coordinate, so a
      cell is a peak of the sum when each coordinate is a peak of its axis
      line. Each axis is screened as a line over only the pairs that hold
      it (the other pairs would add a constant, under whose rounding a
      decaying tail goes flat), and the joint screen runs on the grid of
      each line's CONFIRM_CAP highest peaks (fewer where that grid would
      exceed ``JOINT_GRID_BUDGET`` cells), every cell of which is a peak.
      Each cell gets the bits the whole grid's screen gives it.
    * Joint otherwise: the whole grid, peaks against every axis neighbour.

    ``landscape`` is (axes, screen) of the whole grid, from which
    :func:`write_landscape` forms its values.
    """
    axes, spacing = _grid_axes(obj.span, tau_max, cfg)
    screen, bound = obj.path_screen(axes, spacing)
    if len(axes) > 1 and (obj.act_in.size == 0 or obj.act_out.size == 0):
        keep = min(CONFIRM_CAP, max(1, int(JOINT_GRID_BUDGET ** (1.0 / len(axes)))))
        sub = []
        for i, axis in enumerate(axes):
            line = screen([a if c == i else a[:1] for c, a in enumerate(axes)], i)
            peaks = _peaks(line)
            sub.append(axis[np.sort(peaks[_top(line[peaks], keep)])])
        values = screen(sub)
        return sub, values, np.arange(values.size), bound, (axes, screen)
    values = screen(axes)
    return axes, values, _peaks(values.reshape([a.size for a in axes])), bound, (axes, screen)


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


def _grid_point(grid: list, i: int) -> np.ndarray:
    """Point ``i`` of a :func:`_scan` grid, bit for bit its meshgrid row."""
    idx = np.unravel_index(i, [a.size for a in grid])
    return np.array([a[j] for a, j in zip(grid, idx)])


def _grid_points(grid: list) -> np.ndarray:
    """Every point of a :func:`_scan` grid, one row each."""
    return np.stack([m.ravel() for m in np.meshgrid(*grid, indexing="ij")], axis=1)


def _top(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, largest first, ties in index order."""
    return np.argsort(-values, kind="stable")[:k]


def write_landscape(path: str, result: DelaySearchResult) -> None:
    """One CSV row per grid point of each face's last scan in ``result``,
    its value formed by the scan's screen; the header alone when nothing
    was delayable."""
    header = ",".join([f"tau_{i + 1}" for i in range(len(result.input_delays))]
                      + [f"gamma_{i + 1}" for i in range(len(result.output_delays))]
                      + ["objective"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for obj, grid, screen in result.scans:
            for p, v in zip(_grid_points(grid), screen(grid)):
                tau, gam = obj.full_vectors(p)
                row = np.concatenate([tau, gam, [v]])
                fh.write(",".join("%.12e" % c for c in row) + "\n")


def _better(f: float, x: np.ndarray, best_f: float, best_x: np.ndarray) -> bool:
    """Tie rule: higher by 1e-14 relative, or tied and lexicographically smaller."""
    tol = 1e-14 * max(1.0, abs(best_f))
    return f > best_f + tol or (abs(f - best_f) <= tol and tuple(x) < tuple(best_x))


def _search_face(obj: _Objective, tau_max0: float, cfg: DelaySearchConfig,
                 start: tuple | None):
    """Grid scan and refinement over one face, growing its box (:func:`box_fits`).

    Returns (x, f, complex sum at x, final box, (obj, axes, screen) of the
    last scan's landscape).
    """
    tau_max = float(tau_max0)
    while True:
        grid, values, peaks, bound, landscape = _scan(obj, tau_max, cfg)
        ranked = peaks[_top(values[peaks], CONFIRM_CAP)]
        # only peaks within the screen's rounding bound of the best can be
        # the best: the exact kernel ranks those, and each evaluation is the
        # first of its refinement start
        near = ranked[values[ranked] >= values[ranked[0]] - 2.0 * bound]
        points = [_grid_point(grid, i) for i in near]
        known = {x0.tobytes(): obj.value_grad_hess(x0) for x0 in points}
        order = np.argsort([-v[0] for v in known.values()], kind="stable")
        ranked = np.concatenate([near[order], ranked[near.size:]])
        top = ranked[:TOP_STARTS]
        hi = obj.span * tau_max
        starts = [_grid_point(grid, i) for i in top]
        if start is not None:
            starts.append(np.clip(obj.coords(*start), 0.0, hi))
        # one refinement per distinct start: the caller's start may be a peak
        starts = list({x0.tobytes(): x0 for x0 in starts}.values())

        best = None
        for x0 in starts:
            found = _refine(obj, x0, hi, known.get(x0.tobytes()))
            if best is None or _better(found[1], found[0], best[1], best[0]):
                best = found

        cell = _grid_point(grid, top[0])
        f0, grad0, _, _, total0 = known[cell.tobytes()]
        if best[1] < f0:
            # refinement can only improve on the best start; keep the grid
            # winner if numerical ties land the other way
            best = cell, f0, grad0, total0
        best_x, best_f, grad, total = best

        _, spacing = _grid_axes(obj.span, tau_max, cfg)
        pressing = (best_x >= hi - 2 * spacing) & (grad > 0)
        if not np.any(pressing) or tau_max >= EXTEND_CAP * tau_max0 \
                or not box_fits(obj.g, obj.span, obj.act_in.size, 2.0 * tau_max):
            break
        tau_max *= 2.0
    return best_x, best_f, total, tau_max, (obj, *landscape)


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
        x, f, total, face_box, scan = _search_face(face, tau_max0, cfg, start)
        box = max(box, face_box)
        scans.append(scan)
        full = np.concatenate(face.full_vectors(x))
        if best is None or _better(f, full, *best[:2]):
            best = f, full, total

    # + 0.0 turns a clipped -0.0 into 0.0; the sum is the same at either
    delays = best[1] + 0.0
    return DelaySearchResult(DelayBlock(tuple(delays[:g.nu]), tuple(in_mask)),
                             DelayBlock(tuple(delays[g.nu:]), tuple(out_mask)),
                             box, tuple(scans), best[2])
