"""Delay-free H2-optimal reduction by the rational-Krylov fixed point.

The full model is kept in pole/residue coordinates, where each projection
"solve" (sigma I - A)^{-1} B b is a rational evaluation over the terms, O(N)
per shift. Shifts pair up as their mirrored poles do under
:func:`delayh2.models.conjugate_pairs`, the rule that canonicalizes the
reduced terms; a pair's two columns are replaced by (real, imaginary)
parts, which together with conjugate-closed data makes the projected
pencil exactly real. The pencil is assembled one of two ways, by precision
backend:

* Float models contract over the terms (W^T V and friends, realified on
  V and W), O(N n^2). Binary64 needs this route: the Loewner quotient below
  cancels digits: on an ill-conditioned start pencil (condition number
  3e17) it is 35x less accurate, enough to give a real reduced pole complex
  residues.
* Models with a high-precision payload build the same pencil in Loewner
  form from the transfer data G(s_i) and -G'(s_i) at the n shifts, which
  :meth:`delayh2.precision.Backend.resolvent_sums` computes, the kernel the
  exit certificate and ``eval_transfer`` read too: O(N n ny nu) exact integer
  products instead of O(N n^2). The divided differences cancel
  log10(max|s| / min|s_i - s_j|) digits, so the pencil runs at the payload
  precision raised by that many plus one, and is rounded to float64 only
  after that cancellation. Its n-by-n algebra runs on lists of scalars.

  A pair is an exact mirror when the payload is exactly conjugate-closed
  (``HighPrecisionTerms.conjugate_closed``, checked once per payload) and
  the pair's shifts and both directions are bitwise conjugates. A mirror
  costs one row of data, Er and Ar instead of two: its partner's data is
  the exact conjugate, and its two combined rows are the real and
  imaginary parts of the one row, rounded, which is exactly what combining
  the conjugate rows gives. Any other pair (a payload that is not closed,
  or a warm start conjugate only to rounding) computes both rows, and
  combines them in working precision. This is the library's one
  conjugate-point shortcut: the exit certificate sums every point.

The fixed point converges only linearly, so every third plain step the
iterate (shifts and tangential directions, real and imaginary parts
separately) takes an Aitken delta-squared jump by :func:`aitken_delta2`.
The rule is odd, so an exact mirror pair stays bitwise conjugate and keeps
its one Loewner row. A jump is refused unless the three plain iterates
share one conjugate-pair structure (by that rule), every component it
moves has a shrinking difference, and every extrapolated shift is finite
in the open right half-plane; the history restarts after every attempt.
The stopping test compares a projection's output with its input, shift by
shift, against ``SHIFT_TOL``, and the returned model is always a projection
output, never an extrapolated point. Every iterate, the first included,
orders its shifts as the mirrored poles of a canonical model (a pair's -Im
shift first), so a warm start from a converged model stops after one
projection. Iterates stay raw canonical arrays, checked as a model would
check them, and the :class:`PoleResidueModel` is built once, at exit.

At a fixed point the reduced model bitangentially Hermite-interpolates the
target at its mirrored poles: the gap gradient in the residues and poles
vanishes. The exit certificate checks exactly that: the largest optimality
residual (half a magnitude of :func:`delayh2.h2.gap_gradient`) is at most
1e-6 max(1, ||H||) with H the float reduced model. There the error is
orthogonal to H, so ||H|| <= ||G|| for the target G: the bound is never
looser than 1e-6 max(1, ||G||) and needs no norm sum over G's terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirections, DelayH2Error, check_int
from .h2 import h2_norm_sq, optimality_residuals
from .models import (
    PoleResidueModel,
    _sort_permutation,
    canonicalize_terms,
    checked_order,
    conjugate_pairs,
)
from .precision import Backend, backend_for

DIRECTION_TINY = 1e-14
# projections per irka_reduce call at most; the result is then best-effort
MAX_ITERS = 200
# the iteration stops once a projection moves every shift by less than this
SHIFT_TOL = 1e-8
INIT_MODES = ("log-spaced-real", "random-stable")


@dataclass(frozen=True)
class IrkaConfig:
    """Settings for :func:`irka_reduce`.

    ``init`` is ``"log-spaced-real"`` (shifts log-spaced over the target's
    pole-magnitude range, unit directions) or ``"random-stable"`` (seeded
    log-uniform real shifts, random directions). A warm start passed to
    :func:`irka_reduce` replaces both. The iteration stops below the
    relative shift movement ``SHIFT_TOL``, or after ``MAX_ITERS`` projections.
    """

    order: int
    init: str = "log-spaced-real"
    seed: int = 0

    def __post_init__(self):
        check_int("order", self.order, 1)
        check_int("seed", self.seed, 0)
        if self.init not in INIT_MODES:
            raise DelayH2Error(f"unknown init mode {self.init!r}")


@dataclass(frozen=True)
class IrkaResult:
    """``jumps`` counts the Aitken extrapolations taken (see
    :func:`irka_reduce`); ``iterations`` counts projections; ``norm_sq``
    is :func:`delayh2.h2.h2_norm_sq` of ``model``, which the exit
    certificate forms."""

    model: PoleResidueModel
    iterations: int
    converged: bool
    reflections: int
    jumps: int
    norm_sq: float


def aitken_delta2(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Componentwise Aitken delta-squared limit of three consecutive real
    iterates, x2 - (x2 - x1)^2 / ((x2 - x1) - (x1 - x0)).

    A component whose second difference is at most 1e-13 max(1, |x2|) keeps
    x2. The rule is odd: negating all three inputs negates the result bit
    for bit (negation is exact and rounding is sign-symmetric), so the
    imaginary parts of exact conjugates extrapolate to exact conjugates.
    """
    den = (x2 - x1) - (x1 - x0)
    ext = x2.copy()
    use = np.abs(den) > 1e-13 * np.maximum(1.0, np.abs(x2))
    ext[use] = x2[use] - (x2[use] - x1[use]) ** 2 / den[use]
    return ext


def _initial_iterate(g: PoleResidueModel, cfg: IrkaConfig,
                     start: PoleResidueModel | None):
    n = cfg.order
    amin = float(np.min(np.abs(g.poles)))
    amax = float(np.max(np.abs(g.poles)))
    if start is not None:
        if start.order != n or start.ny != g.ny or start.nu != g.nu:
            raise DelayH2Error(
                f"warm start of order {start.order} ({start.ny}x{start.nu}) "
                f"does not fit order {n} ({g.ny}x{g.nu})")
        shifts, bdirs, cdirs = -start.poles, start.right, start.left
    elif cfg.init == "random-stable":
        rng = np.random.default_rng(cfg.seed)
        lo, hi = np.log(amin), np.log(max(amax, amin * (1 + 1e-12)))
        shifts = np.exp(rng.uniform(lo, hi, size=n)).astype(complex)
        bdirs = rng.standard_normal((n, g.nu)).astype(complex)
        cdirs = rng.standard_normal((n, g.ny)).astype(complex)
    else:
        shifts = np.geomspace(amin, max(amax, amin * (1 + 1e-12)), n).astype(complex)
        # tiny stagger keeps equal-magnitude shifts distinct
        shifts *= 1.0 + 1e-9 * np.arange(n)
        bdirs = np.ones((n, g.nu), dtype=complex) / np.sqrt(g.nu)
        cdirs = np.ones((n, g.ny), dtype=complex) / np.sqrt(g.ny)
    # every iterate mirrors a model's poles in canonical order (a pair's -Im
    # shift first), so the first movement compares like with like; a warm
    # start is already in that order
    order = _sort_permutation(-shifts)
    return shifts[order], bdirs[order], cdirs[order]


def _combine_pairs(M: np.ndarray, groups) -> np.ndarray:
    """Replace each conjugate pair's columns (k, kc) of ``M``, in place, by
    their half-sum and half-difference-over-i.

    A conjugate shift pair spans {v, v'}. With conjugate-closed data v'
    equals v conjugated up to the term-pairing permutation, so the combined
    columns make every pencil sum over the terms come out real.
    """
    for k, kc in groups:
        if kc is not None:
            a, b = M[:, k].copy(), M[:, kc].copy()
            M[:, k], M[:, kc] = 0.5 * (a + b), -0.5j * (a - b)
    return M


def _exact_mirrors(shifts, bdirs, cdirs, groups) -> list[tuple[int, int]]:
    """The pairs (k, kc) of ``groups`` whose shift and both directions at kc
    are bitwise the conjugates of those at k."""
    conj = lambda a, k, kc: a[kc].tolist() == a[k].conj().tolist()
    return [(k, kc) for k, kc in groups if kc is not None
            and all(conj(a, k, kc) for a in (shifts, bdirs, cdirs))]


def _loewner_digits(shifts: np.ndarray) -> int:
    """Digits the Loewner quotient cancels, plus one:
    log10(max |s| / min |s_i - s_j|) over distinct shifts (0 if none)."""
    gaps = np.abs(shifts[:, None] - shifts[None, :])
    gaps = gaps[gaps > 0.0]
    if gaps.size == 0:
        return 0
    lost = np.log10(np.max(np.abs(shifts)) / np.min(gaps))
    return max(0, int(np.ceil(lost))) + 1


def _direct_pencil(g: PoleResidueModel, shifts, bdirs, cdirs, groups):
    """Float pencil (W^T V, W^T diag(mu) V, W^T R, L^T V) by contraction over
    the terms, with V_kj = r_k.b_j / (s_j - mu_k), W_ki = l_k.c_i / (s_i - mu_k)
    and each conjugate pair's columns of V and W combined first."""
    mu = g.poles
    denom = shifts[None, :] - mu[:, None]              # (N, n)
    V = _combine_pairs((g.right @ bdirs.T) / denom, groups)
    W = _combine_pairs((g.left @ cdirs.T) / denom, groups)
    return W.T @ V, W.T @ (mu[:, None] * V), W.T @ g.right, g.left.T @ V


def _loewner_pencil(bk: Backend, g: PoleResidueModel, shifts, bdirs, cdirs,
                    groups, mirrored):
    """The same pencil from tangential transfer data at the shifts.

    With G(s) = sum_k psi_k / (s - mu_k), psi_k = l_k r_k^T, partial
    fractions turn each entry of W^T V into a divided difference:
    Er_ij = (c_i^T G(s_i) b_j - c_i^T G(s_j) b_j) / (s_j - s_i), or
    -c_i^T G'(s_i) b_j where s_i = s_j; Ar = Er diag(s) - [c_i^T G(s_i) b_j],
    Br_i = c_i^T G(s_i) and Cr_j = G(s_j) b_j. G and -G' come from
    :meth:`Backend.resolvent_sums`, O(N n ny nu) products instead of
    O(N n^2), and conjugate pairs are combined on the n-by-n rows and
    columns in working precision.

    For each pair (k, kc) in ``mirrored`` (see :func:`_exact_mirrors`) on an
    exactly conjugate-closed payload, G(s_kc) is the conjugate of G(s_k):
    only row k is computed, column kc of Cr is the conjugate of column k,
    and the pair's combined rows (columns of Cr) are (Re, Im) of row k
    rounded, which is exact.
    """
    n = shifts.size
    partners = {kc for _, kc in mirrored}
    rows = [i for i in range(n) if i not in partners]
    dot = lambda x, y: sum(p * q for p, q in zip(x, y))
    with bk.context():
        # n-by-n scalar algebra on XComplex lists: numpy per operation
        # would cost more than the arithmetic
        half, mhalfj, *s = bk.lift(np.concatenate([[0.5, -0.5j], shifts])).tolist()
        b, c = bk.lift(bdirs).tolist(), bk.lift(cdirs).tolist()
        gval, gder = (a.tolist() for a in bk.resolvent_sums(shifts[rows], g))
        Br = [[dot(c[i], col) for col in zip(*G)] for i, G in zip(rows, gval)]
        Cr = {j: [dot(row, b[j]) for row in G] for j, G in zip(rows, gval)}
        for k, kc in mirrored:
            Cr[kc] = [v.conjugate() for v in Cr[k]]        # exact at this precision
        full = {}
        for i, Bi, Di in zip(rows, Br, gder):
            Er, Ar = [], []
            for j in range(n):
                at_i = dot(Bi, b[j])                       # c_i^T G(s_i) b_j
                if shifts[i] == shifts[j]:
                    e = dot(c[i], [dot(row, b[j]) for row in Di])
                else:
                    e = (at_i - dot(c[i], Cr[j])) / (s[j] - s[i])
                Er.append(e)
                Ar.append(e * s[j] - at_i)
            full[i] = Er + Ar + Bi + Cr[i]
        for M in full.values():                            # columns of Er, Ar
            for k, kc in (p for p in groups if p[1] is not None):
                for o in (0, n):
                    x, y = M[o + k], M[o + kc]
                    M[o + k], M[o + kc] = half * (x + y), mhalfj * (x - y)
        for k, kc in (p for p in groups if p[1] is not None and p not in mirrored):
            x, y = full[k], full[kc]                       # rows of both
            full[k] = [half * (u + v) for u, v in zip(x, y)]
            full[kc] = [mhalfj * (u - v) for u, v in zip(x, y)]
    # a mirrored pair's combined rows are (Re, Im) of row k rounded, exactly
    out = np.zeros((n, 2 * n + g.nu + g.ny), dtype=complex)
    for i, M in full.items():
        out[i] = M
    for k, kc in mirrored:
        out[kc] = out[k].imag
        out[k] = out[k].real
    return out[:, :n], out[:, n:2 * n], out[:, 2 * n:2 * n + g.nu], out[:, 2 * n + g.nu:].T


def _project(g: PoleResidueModel, shifts, bdirs, cdirs, groups):
    """Projected pencil (Er, Ar, Br, Cr) at the shifts, as complex128.

    A payload model runs the Loewner form at its precision raised by the
    digits the quotient cancels, computing one row per exact mirror pair
    when the payload is exactly conjugate-closed; a float model keeps the
    direct contraction, which is better conditioned in binary64.
    """
    bk = backend_for(g)
    if bk.dps is None:
        return _direct_pencil(g, shifts, bdirs, cdirs, groups)
    hi = Backend(bk.dps + _loewner_digits(shifts))
    mirrored = _exact_mirrors(shifts, bdirs, cdirs, groups) \
        if g.hp.conjugate_closed else []
    return _loewner_pencil(hi, g, shifts, bdirs, cdirs, groups, mirrored)


def _aitken_jump(history):
    """Aitken jump (shifts, bdirs, cdirs) from three consecutive plain
    iterates (shifts, bdirs, cdirs, pair groups), or None where one of
    :func:`irka_reduce`'s guards refuses it. Real and imaginary parts are
    extrapolated separately on one flat view."""
    if len({tuple(groups) for *_, groups in history}) != 1:
        return None
    x0, x1, x2 = (np.concatenate([s, b.ravel(), c.ravel()]).view(float)
                  for s, b, c, _ in history)
    ext = aitken_delta2(x0, x1, x2)
    moved = ext != x2
    if not np.any(moved) or not np.all(np.isfinite(ext)) \
            or np.any(np.abs(x2 - x1)[moved] >= np.abs(x1 - x0)[moved]):
        return None
    s, b, c, _ = history[-1]
    ext = ext.view(complex)
    shifts = ext[:s.size]
    if np.any(shifts.real <= 0.0):
        return None
    bdirs = ext[s.size:s.size + b.size].reshape(b.shape)
    return shifts, bdirs, ext[s.size + b.size:].reshape(c.shape)


def _next_iterate(lam, CX, BX):
    """Next (shifts, bdirs, cdirs) from the reduced pencil's eigen-data: the
    mirrored poles and residue rows of the model :func:`canonicalize_terms`
    makes of them, in its canonical order, with every check of
    :class:`PoleResidueModel` and of the directions made but no model built."""
    poles, lv, rv = canonicalize_terms(lam, CX.T, BX)
    perm = checked_order(poles, lv, rv)
    shifts, bdirs, cdirs = -poles[perm], rv[perm], lv[perm]
    tiny = DIRECTION_TINY * max(np.abs(bdirs).max(), np.abs(cdirs).max())
    for d in (bdirs, cdirs):
        # row 2-norms as np.linalg.norm(d, axis=1) forms them
        if np.sqrt((d.conj() * d).real.sum(axis=1)).min() < tiny:
            raise DegenerateDirections("tangential direction collapsed to zero")
    return shifts, bdirs, cdirs


def _realify_pencil(*mats: np.ndarray) -> list[np.ndarray]:
    out = []
    for M in mats:
        # max|Im M| > 1e-6 max(1, max|M|); max|M| is needed only above 1e-6
        leak = np.abs(M.imag).max()
        if leak > 1e-6 and leak > 1e-6 * np.abs(M).max():
            raise DelayH2Error("projected pencil failed to realify; "
                               "input data is not conjugate-closed")
        out.append(np.ascontiguousarray(M.real))
    return out


def irka_reduce(g: PoleResidueModel, cfg: IrkaConfig,
                start: PoleResidueModel | None = None) -> IrkaResult:
    """Run the interpolatory fixed-point iteration on ``g``.

    ``start`` warm-starts the iteration from a reduced model: its mirrored
    poles, in the model's canonical order, are the first shifts and its
    residue rows the first tangential directions (``cfg.init`` and
    ``cfg.seed`` are then unused). On
    convergence the returned model satisfies the bitangential Hermite
    conditions at its mirrored poles against ``g``: its
    :func:`delayh2.h2.optimality_residuals` are checked and folded into
    ``converged``. Unstable intermediate poles are reflected into the left
    half-plane and counted. At ``n == order(g)`` the target is a fixed
    point, but reaching it is not guaranteed: the tests check a cold start
    there (gap below 1e-10) only on random models of orders 3 and 4. A
    known failure: the order-12 model ``random_pr(default_rng(3),
    12)`` of the tests' generator runs all ``MAX_ITERS`` projections and
    returns ``converged=False``, its gap 1.8e-11 of ||G||^2 but its real
    poles not G's. A warm start at the target itself can stall on the
    movement test where the pencil is ill-conditioned.

    Every third plain step the canonical iterate takes an Aitken jump (see
    :func:`_aitken_jump`), counted in ``jumps``, if all three guards pass:
    one conjugate-pair structure across the three iterates, a strictly
    shrinking difference in every component the jump moves, and finite
    extrapolated shifts with positive real parts. The history restarts
    after every attempt, taken or refused. The stopping test is unchanged,
    and the returned model is always the output of a plain projection.
    """
    n = int(cfg.order)
    if not 1 <= n <= g.order:
        raise DelayH2Error(f"reduced order {n} outside [1, {g.order}]")
    shifts, bdirs, cdirs = _initial_iterate(g, cfg, start)
    # each iterate's conjugate_pairs groups, formed once: its projection
    # and the Aitken guard read them
    groups = conjugate_pairs(-shifts)
    moved_ok = False
    reflections = 0
    jumps = 0
    plain = []

    for iterations in range(1, MAX_ITERS + 1):
        Er, Ar, Br, Cr = _realify_pencil(
            *_project(g, shifts, bdirs, cdirs, groups))
        try:
            lam, X = np.linalg.eig(np.linalg.solve(Er, Ar))
        except np.linalg.LinAlgError as exc:
            raise DegenerateDirections(f"projected pencil is singular: {exc}")
        CX = Cr @ X
        try:
            BX = np.linalg.solve(Er @ X, Br)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDirections(f"eigenvector matrix is singular: {exc}")
        unstable = lam.real >= 0
        if np.any(unstable):
            reflections += int(np.sum(unstable))
            lam = np.where(unstable,
                           np.where(lam.real > 0, lam - 2 * lam.real,
                                    lam - 1e-8 * np.maximum(1.0, np.abs(lam))),
                           lam)
        new_shifts, bdirs_new, cdirs_new = _next_iterate(lam, CX, BX)
        denom = max(float(np.max(np.abs(shifts))), 1e-300)
        movement = float(np.max(np.abs(new_shifts - shifts))) / denom
        shifts, bdirs, cdirs = new_shifts, bdirs_new, cdirs_new
        last = shifts, bdirs, cdirs
        if movement < SHIFT_TOL:
            moved_ok = True
            break
        groups = conjugate_pairs(-shifts)
        plain.append((shifts, bdirs, cdirs, groups))
        if len(plain) == 3:
            jump = _aitken_jump(plain)
            plain.clear()
            if jump is not None:
                shifts, bdirs, cdirs = jump
                groups = conjugate_pairs(-shifts)
                jumps += 1

    shifts, bdirs, cdirs = last
    model = PoleResidueModel(-shifts, cdirs, bdirs)
    norm_sq = h2_norm_sq(model)
    converged = moved_ok and optimality_residuals(g, model).max_residual() \
        <= 1e-6 * max(float(np.sqrt(norm_sq)), 1.0)
    return IrkaResult(model=model, iterations=iterations, converged=converged,
                      reflections=reflections, jumps=jumps, norm_sq=norm_sq)
