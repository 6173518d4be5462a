"""Delay-free H2-optimal reduction by the rational-Krylov fixed point.

The full model is kept in pole/residue coordinates, where each projection
"solve" (sigma I - A)^{-1} B b is a rational evaluation over the terms, O(N)
per shift. Conjugate shift pairs contribute one complex column each; the
pair's two columns are replaced by (real, imaginary) parts, which together
with conjugate-closed data makes the projected pencil exactly real. The
pencil is assembled one of two ways, by precision backend:

* Float models contract over the terms (W^T V and friends, realified on
  V and W), O(N n^2). Binary64 needs this route: the Loewner quotient below
  cancels digits: on an ill-conditioned start pencil (condition number
  3e17) it is 35x less accurate, enough to give a real reduced pole complex
  residues.
* Models with a high-precision payload build the same pencil in Loewner
  form from tangential transfer data at the n shifts, G(s_i) b_i,
  c_i^T G(s_i) and c_i^T G'(s_i) b_i, combining conjugate pairs on the
  n-by-n pencil: O(N n ny nu) mpmath products instead of O(N n^2). Its
  divided differences cancel log10(max|s| / min|s_i - s_j|) digits, so
  they run at the payload precision raised by that many plus one. The
  pencil is rounded to float64 only after that cancellation, and every
  reduced model is plain float64.

  A real system's shifts come in conjugate pairs, and where the data at s
  is exactly conjugate to the data at s' the pencil needs only one of
  them. A pair is an exact mirror when the payload is exactly
  conjugate-closed (checked once per :func:`irka_reduce`, O(N) mpmath
  comparisons) and the pair's shifts and both directions are bitwise
  conjugates. A mirror costs one shift's transfer data, O(N ny nu)
  products, and one row of Er and Ar instead of two; its partner's data is
  the exact conjugate, and its two combined rows are the real and
  imaginary parts of the one row, which is exactly what combining the
  conjugate rows gives. Any other pair (a payload that is not closed, or a
  warm start conjugate only to rounding) computes both rows.

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

from .errors import DegenerateDirections, DelayH2Error
from .h2 import h2_norm_pole_residue, optimality_residuals
from .models import PoleResidueModel, canonicalize_terms
from .precision import Backend, backend_for

DIRECTION_TINY = 1e-14
INIT_MODES = ("log-spaced-real", "random-stable")

# elementwise parts of working-precision (object) arrays, without rounding
_real_part = np.frompyfunc(lambda v: v.real, 1, 1)
_imag_part = np.frompyfunc(lambda v: v.imag, 1, 1)


@dataclass(frozen=True)
class IrkaConfig:
    """Settings for :func:`irka_reduce`.

    ``init`` is ``"log-spaced-real"`` (shifts log-spaced over the target's
    pole-magnitude range, unit directions) or ``"random-stable"`` (seeded
    log-uniform real shifts, random directions). A warm start passed to
    :func:`irka_reduce` replaces both.
    """

    order: int
    max_iters: int = 200
    shift_tol: float = 1e-8
    init: str = "log-spaced-real"
    seed: int = 0

    def __post_init__(self):
        if self.order < 1:
            raise DelayH2Error("reduced order must be at least 1")
        if self.max_iters < 1 or not 0.0 < self.shift_tol < np.inf:
            raise DelayH2Error("iteration settings must be positive and finite")
        if self.init not in INIT_MODES:
            raise DelayH2Error(f"unknown init mode {self.init!r}")
        if self.seed < 0:
            raise DelayH2Error(f"seed {self.seed} is negative")


@dataclass(frozen=True)
class IrkaResult:
    model: PoleResidueModel
    iterations: int
    converged: bool
    final_shift_movement: float
    reflections: int


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
    order = np.lexsort((-np.sign(shifts.imag), np.abs(shifts.imag), shifts.real))
    return shifts[order], bdirs[order], cdirs[order]


def _pair_structure(shifts: np.ndarray) -> list[tuple[int, int | None]]:
    """Group canonical shifts into (index, conjugate partner index or None)."""
    groups = []
    k = 0
    n = shifts.size
    while k < n:
        if abs(shifts[k].imag) > 1e-14 * max(1.0, abs(shifts[k])) and k + 1 < n \
                and abs(shifts[k + 1] - np.conj(shifts[k])) \
                <= 1e-8 * max(1.0, abs(shifts[k])):
            groups.append((k, k + 1))
            k += 2
        else:
            groups.append((k, None))
            k += 1
    return groups


def _combine_pairs(M: np.ndarray, groups, mirrored=()) -> np.ndarray:
    """Replace each conjugate pair's columns (k, kc) of ``M``, in place, by
    their half-sum and half-difference-over-i; pass ``M.T`` for rows.

    A conjugate shift pair spans {v, v'}. With conjugate-closed data v'
    equals v conjugated up to the term-pairing permutation, so the combined
    columns make every pencil sum over the terms come out real. For a pair
    in ``mirrored`` column kc is the exact conjugate of column k, so the
    combination is exactly (Re, Im) of column k, and column kc is not read.
    """
    for k, kc in groups:
        if kc is None:
            continue
        if (k, kc) in mirrored:
            M[:, k], M[:, kc] = _real_part(M[:, k]), _imag_part(M[:, k])
        else:
            a, b = M[:, k].copy(), M[:, kc].copy()
            M[:, k], M[:, kc] = 0.5 * (a + b), -0.5j * (a - b)
    return M


def _payload_closed(g: PoleResidueModel) -> bool:
    """Whether ``g`` has a payload that is exactly conjugate-closed: each
    real pole carries real residues, and each complex term is followed (in
    canonical order) by its exact conjugate term."""
    hp = g.hp
    if hp is None:
        return False
    # exact comparisons: conjugation and negation round to the working
    # precision, while a sum of two numbers is 0 only when they cancel exactly
    conj_of = lambda a, b: a.real == b.real and a.imag + b.imag == 0
    k = 0
    while k < len(hp):
        row = (hp.poles[k],) + hp.left[k] + hp.right[k]
        if hp.poles[k].imag == 0:
            if any(v.imag != 0 for v in row):
                return False
            k += 1
            continue
        kc = k + 1
        if kc == len(hp) or not all(map(
                conj_of, (hp.poles[kc],) + hp.left[kc] + hp.right[kc], row)):
            return False
        k += 2
    return True


def _exact_mirrors(shifts, bdirs, cdirs, groups) -> list[tuple[int, int]]:
    """The pairs (k, kc) of ``groups`` whose shift and both directions at kc
    are bitwise the conjugates of those at k."""
    return [(k, kc) for k, kc in groups if kc is not None
            and shifts[kc] == np.conj(shifts[k])
            and np.array_equal(bdirs[kc], np.conj(bdirs[k]))
            and np.array_equal(cdirs[kc], np.conj(cdirs[k]))]


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
    Br_i = c_i^T G(s_i) and Cr_j = G(s_j) b_j. Conjugate pairs are combined
    on the n-by-n rows and columns. O(N n ny nu) products instead of O(N n^2).

    For each pair (k, kc) in ``mirrored`` (see :func:`_exact_mirrors`) on an
    exactly conjugate-closed payload, G(s_kc) is the conjugate of G(s_k):
    only row k is computed, column kc of Cr is the conjugate of column k,
    and the pair's combined rows are (Re, Im) of row k.
    """
    n = shifts.size
    partners = {kc for _, kc in mirrored}
    rows = [i for i in range(n) if i not in partners]
    with bk.context():
        mu, left, right = bk.terms(g)
        s, b, c = bk.lift(shifts), bk.lift(bdirs), bk.lift(cdirs)
        inv = (1.0 / (s[rows, None] - mu[None, :]))[:, :, None, None]
        terms = inv * (left[:, :, None] * right[:, None, :])  # psi_k / (s_i - mu_k)
        gval = terms.sum(axis=1)                           # G(s_i), (rows, ny, nu)
        gder = (inv * terms).sum(axis=1)                   # -G'(s_i)
        Br = np.einsum("im,iml->il", c[rows], gval)
        Cr = np.empty((g.ny, n), dtype=object)
        Cr[:, rows] = np.einsum("jml,jl->mj", gval, b[rows])
        for k, kc in mirrored:
            Cr[:, kc] = np.conj(Cr[:, k])                  # exact at this precision
        at_i = Br @ b.T                                    # c_i^T G(s_i) b_j
        at_j = c[rows] @ Cr                                # c_i^T G(s_j) b_j
        same = shifts[rows, None] == shifts[None, :]
        quotient = (at_i - at_j) / np.where(same, 1, s[None, :] - s[rows, None])
        Er = np.where(same, np.einsum("im,iml,jl->ij", c[rows], gder, b), quotient)
        Ar = Er * s[None, :] - at_i
        Er, Ar = (_rows_of(n, rows, _combine_pairs(M, groups)) for M in (Er, Ar))
        Br = _rows_of(n, rows, Br)
        _combine_pairs(Cr, groups, mirrored)
        for M in (Er, Ar, Br):
            _combine_pairs(M.T, groups, mirrored)
        return [bk.to_complex(M) for M in (Er, Ar, Br, Cr)]


def _rows_of(n: int, rows, M: np.ndarray) -> np.ndarray:
    """n-row object array holding ``M`` at ``rows`` (other rows unset)."""
    out = np.empty((n,) + M.shape[1:], dtype=object)
    out[rows] = M
    return out


def _project(g: PoleResidueModel, shifts, bdirs, cdirs, groups, closed: bool):
    """Projected pencil (Er, Ar, Br, Cr) at the shifts, as complex128.

    A payload model runs the Loewner form at its precision raised by the
    digits the quotient cancels, computing one row per exact mirror pair
    when ``closed`` (see :func:`_payload_closed`); a float model keeps the
    direct contraction, which is better conditioned in binary64.
    """
    bk = backend_for(g)
    if bk.dps is None:
        return _direct_pencil(g, shifts, bdirs, cdirs, groups)
    hi = Backend(bk.dps + _loewner_digits(shifts))
    mirrored = _exact_mirrors(shifts, bdirs, cdirs, groups) if closed else []
    return _loewner_pencil(hi, g, shifts, bdirs, cdirs, groups, mirrored)


def _realify_pencil(*mats: np.ndarray) -> list[np.ndarray]:
    out = []
    for M in mats:
        scale = max(1.0, float(np.max(np.abs(M))))
        if np.max(np.abs(M.imag)) > 1e-6 * scale:
            raise DelayH2Error("projected pencil failed to realify; "
                               "input data is not conjugate-closed")
        out.append(np.ascontiguousarray(M.real))
    return out


def irka_reduce(g: PoleResidueModel, cfg: IrkaConfig,
                start: PoleResidueModel | None = None) -> IrkaResult:
    """Run the interpolatory fixed-point iteration on ``g``.

    ``start`` warm-starts the iteration from a reduced model: its mirrored
    poles are the first shifts and its residue rows the first tangential
    directions (``cfg.init`` and ``cfg.seed`` are then unused). On
    convergence the returned model satisfies the bitangential Hermite
    conditions at its mirrored poles against ``g``: its
    :func:`delayh2.h2.optimality_residuals` are checked and folded into
    ``converged``. Unstable intermediate poles are reflected into the left
    half-plane and counted. ``n == order(g)`` recovers the target exactly.
    """
    n = int(cfg.order)
    if not 1 <= n <= g.order:
        raise DelayH2Error(f"reduced order {n} outside [1, {g.order}]")
    shifts, bdirs, cdirs = _initial_iterate(g, cfg, start)
    closed = _payload_closed(g)
    movement = np.inf
    moved_ok = False
    reflections = 0
    model = None
    iterations = 0

    for _ in range(cfg.max_iters):
        iterations += 1
        groups = _pair_structure(shifts)
        Er, Ar, Br, Cr = _realify_pencil(
            *_project(g, shifts, bdirs, cdirs, groups, closed))
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
        poles, lv, rv = canonicalize_terms(lam, CX.T, BX)
        model = PoleResidueModel(poles, lv, rv)
        new_shifts = -model.poles
        bdirs_new = model.right.copy()
        cdirs_new = model.left.copy()
        dir_scale = max(np.max(np.abs(bdirs_new)), np.max(np.abs(cdirs_new)))
        if (np.min(np.linalg.norm(bdirs_new, axis=1)) < DIRECTION_TINY * dir_scale
                or np.min(np.linalg.norm(cdirs_new, axis=1)) < DIRECTION_TINY * dir_scale):
            raise DegenerateDirections("tangential direction collapsed to zero")
        denom = max(float(np.max(np.abs(shifts))), 1e-300)
        movement = float(np.max(np.abs(new_shifts - shifts))) / denom
        shifts, bdirs, cdirs = new_shifts, bdirs_new, cdirs_new
        if movement < cfg.shift_tol:
            moved_ok = True
            break

    converged = moved_ok and optimality_residuals(g, model).max_residual() \
        <= 1e-6 * max(h2_norm_pole_residue(model), 1.0)
    return IrkaResult(model=model, iterations=iterations, converged=converged,
                      final_shift_movement=movement, reflections=reflections)
