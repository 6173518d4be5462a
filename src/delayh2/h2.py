"""Residue-based H2 algebra.

Everything here reduces to one kernel: the cross inner product between a
delayed reduced model and the full model,

    cross(tau, gamma) = sum_j l_j^T diag(e^{mu_j gamma}) H(-mu_j) diag(e^{mu_j tau}) r_j,

summed over the full model's terms (mu_j, l_j, r_j), together with its first
and second derivatives in the delays (each derivative multiplies the (m, l)
channel term by mu_j once more). Norms are the zero-delay self case, the gap
is assembled from three such numbers, and the delay gradient of the gap is
-2x the cross derivative. The kernel has two stages: the zero-delay term
tensor K[j, m, l] = l_jm H(-mu_j)_ml r_jl, and the delayed sum of K against
e^{mu_j (gamma_m + tau_l)}, which the delay search reuses on a cached K.
Both are written once against :mod:`delayh2.precision`: when a model
carries the high-precision payload they run in its precision, because the
float64 sum loses everything to cancellation for badly conditioned residue
sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeNormSquared,
    NonRealSum,
)
from .models import (
    IMAG_TOL,
    DelayBlock,
    DelayedModel,
    HighPrecisionTerms,
    PoleResidueModel,
    _as_delayed,
    eval_transfer,
    eval_transfer_derivative,
)
from .precision import Backend, backend_for


@dataclass(frozen=True)
class GapValue:
    """Squared-H2 mismatch j = norm_g_sq - 2*cross + norm_h_sq, with parts."""

    j: float
    norm_g_sq: float
    cross: float
    norm_h_sq: float

    @property
    def terms(self) -> tuple[float, float, float]:
        return (self.norm_g_sq, self.cross, self.norm_h_sq)


@dataclass(frozen=True)
class OptimalityResiduals:
    """Magnitudes of the first-order condition defects of a candidate.

    ``interp_right[k]`` = ||(H - Gt)(-lambda_k) b_k||,
    ``interp_left[k]``  = ||c_k^T (H - Gt)(-lambda_k)||,
    ``interp_hermite[k]`` = |c_k^T (H' - Gt')(-lambda_k) b_k|,
    ``delay_in[l]`` / ``delay_out[m]`` = |d cross / d delay| per channel
    (0 on masked-off channels).
    """

    interp_right: tuple
    interp_left: tuple
    interp_hermite: tuple
    delay_in: tuple
    delay_out: tuple

    def max_residual(self) -> float:
        groups = (self.interp_right, self.interp_left, self.interp_hermite,
                  self.delay_in, self.delay_out)
        return max((max(g) for g in groups if g), default=0.0)

    def max_interpolation(self) -> float:
        groups = (self.interp_right, self.interp_left, self.interp_hermite)
        return max((max(g) for g in groups if g), default=0.0)

    def max_delay(self) -> float:
        groups = (self.delay_in, self.delay_out)
        return max((max(g) for g in groups if g), default=0.0)


# ---------------------------------------------------------------------------
# the cross kernel


def _cross_tensor(bk: Backend, g: PoleResidueModel, h: PoleResidueModel):
    """g's poles mu and the zero-delay cross terms
    K[j, m, l] = l_jm H(-mu_j)_ml r_jl, both in ``bk``'s precision."""
    with bk.context():
        mu, gl, gr = bk.terms(g)
        lam, hl, hr = bk.terms(h)
        dmat = 1.0 / (-mu[:, None] - lam[None, :])  # (N, n)
        hval = np.einsum("km,kl,jk->jml", hl, hr, dmat)
        return mu, np.einsum("jm,jml,jl->jml", gl, hval, gr)


def _delay_sum(bk: Backend, mu, ktensor, tau: np.ndarray, gam: np.ndarray,
               order: int):
    """Sum of the cross terms under delays (tau, gamma), with derivatives.

    Returns (f, grad_in, grad_out, hess) as complex128 data; entries past
    ``order`` are None. ``hess`` is over the stacked coordinates
    (inputs first, then outputs).
    """
    with bk.context():
        # e^0 = 1 exactly, so a side without delays skips its exponentials
        core = ktensor
        if np.any(gam):
            core = core * bk.exp(np.outer(mu, bk.lift(gam)))[:, :, None]
        if np.any(tau):
            core = core * bk.exp(np.outer(mu, bk.lift(tau)))[:, None, :]
        f = bk.to_complex(core.sum())
        g_in = g_out = hess = None
        if order >= 1:
            g_in = bk.to_complex(np.einsum("j,jml->l", mu, core))
            g_out = bk.to_complex(np.einsum("j,jml->m", mu, core))
        if order >= 2:
            mu2 = mu * mu
            nu, ny = tau.size, gam.size
            hess = np.zeros((nu + ny, nu + ny), dtype=complex)
            hess[:nu, :nu] = np.diag(bk.to_complex(np.einsum("j,jml->l", mu2, core)))
            hess[nu:, nu:] = np.diag(bk.to_complex(np.einsum("j,jml->m", mu2, core)))
            hess[:nu, nu:] = bk.to_complex(np.einsum("j,jml->lm", mu2, core))
            hess[nu:, :nu] = hess[:nu, nu:].T
    return f, g_in, g_out, hess


def _cross_eval(g: PoleResidueModel, h: PoleResidueModel,
                tau: np.ndarray, gam: np.ndarray, order: int = 0):
    """Cross inner product of diag(e^{-s gamma}) H diag(e^{-s tau}) against g,
    with optional delay derivatives (see :func:`_delay_sum`)."""
    if g.ny != h.ny or g.nu != h.nu:
        raise DimensionMismatch(
            f"channel mismatch: ({g.ny}x{g.nu}) vs ({h.ny}x{h.nu})"
        )
    bk = backend_for(g, h)
    mu, ktensor = _cross_tensor(bk, g, h)
    return _delay_sum(bk, mu, ktensor, np.asarray(tau, dtype=float),
                      np.asarray(gam, dtype=float), order)


def _real_or_raise(value: complex, what: str) -> float:
    if abs(np.imag(value)) >= IMAG_TOL:
        raise NonRealSum(f"{what} has imaginary leakage {np.imag(value):.3e}")
    return float(np.real(value))


# ---------------------------------------------------------------------------
# norms


def h2_norm_sq(h: PoleResidueModel | DelayedModel) -> float:
    """Squared H2 norm via sum_k c_k^T H(-lambda_k) b_k (delay invariant)."""
    core = _as_delayed(h).core
    zero_in = np.zeros(core.nu)
    zero_out = np.zeros(core.ny)
    f, _, _, _ = _cross_eval(core, core, zero_in, zero_out, order=0)
    val = _real_or_raise(f, "squared H2 norm")
    if val < -IMAG_TOL:
        raise NegativeNormSquared(f"squared norm {val:.3e} below -tolerance")
    return max(val, 0.0)


def h2_norm_pole_residue(h: PoleResidueModel | DelayedModel) -> float:
    """H2 norm from the pole/residue formula; delays do not change it."""
    return float(np.sqrt(h2_norm_sq(h)))


# ---------------------------------------------------------------------------
# inner product, gap, surrogate


def inner_product_delayed(hd: DelayedModel | PoleResidueModel,
                          g: PoleResidueModel) -> float:
    """<delayed reduced model, g> in H2, summed over g's poles."""
    hd = _as_delayed(hd)
    f, _, _, _ = _cross_eval(g, hd.core, hd.input_delays.as_array(),
                             hd.output_delays.as_array(), order=0)
    return _real_or_raise(f, "inner product")


def compute_gap(g: PoleResidueModel, hd: DelayedModel | PoleResidueModel,
                g_norm_sq: float) -> GapValue:
    """Assemble the squared mismatch from its three terms.

    ``g_norm_sq`` is passed in because it is constant across a reduction run
    (compute it once with :func:`h2_norm_sq`).
    """
    hd = _as_delayed(hd)
    cross = inner_product_delayed(hd, g)
    norm_h_sq = h2_norm_sq(hd.core)
    j = g_norm_sq - 2.0 * cross + norm_h_sq
    if j < -1e-9:
        raise NegativeNormSquared(f"gap {j:.3e} below -1e-9; inconsistent inputs")
    return GapValue(j=max(j, 0.0), norm_g_sq=float(g_norm_sq),
                    cross=cross, norm_h_sq=norm_h_sq)


def build_gtilde(g: PoleResidueModel,
                 input_delays: DelayBlock,
                 output_delays: DelayBlock) -> PoleResidueModel:
    """Delay-advanced surrogate: same poles, residues scaled channel-wise by
    e^{mu_j * delay} so that its impulse response is the original's advanced
    by the delays (per channel pair)."""
    if len(input_delays) != g.nu or len(output_delays) != g.ny:
        raise DimensionMismatch("delay block lengths do not match model channels")
    tau = input_delays.as_array()
    gam = output_delays.as_array()
    bk = backend_for(g)
    with bk.context():
        mu, left, right = bk.terms(g)
        if np.any(gam):
            left = left * bk.exp(np.outer(mu, bk.lift(gam)))
        if np.any(tau):
            right = right * bk.exp(np.outer(mu, bk.lift(tau)))
    hp = None
    if bk.dps is not None:
        hp = HighPrecisionTerms(tuple(mu), tuple(map(tuple, left)),
                                tuple(map(tuple, right)), bk.dps)
    return PoleResidueModel(g.poles.copy(), bk.to_complex(left),
                            bk.to_complex(right), hp=hp)


# ---------------------------------------------------------------------------
# gradients


def grad_delays(g: PoleResidueModel,
                hd: DelayedModel) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the gap j with respect to (input delays, output delays).

    Equals -2x the delay derivative of the cross term; masked-off channels
    report exactly 0.
    """
    _, g_in, g_out, _ = _cross_eval(g, hd.core, hd.input_delays.as_array(),
                                    hd.output_delays.as_array(), order=1)
    din = np.zeros(g.nu)
    dout = np.zeros(g.ny)
    for l, keep in enumerate(hd.input_delays.mask):
        if keep:
            din[l] = -2.0 * _real_or_raise(g_in[l], f"delay gradient (input {l})")
    for m, keep in enumerate(hd.output_delays.mask):
        if keep:
            dout[m] = -2.0 * _real_or_raise(g_out[m], f"delay gradient (output {m})")
    return din, dout


def grad_residues_poles(gt: PoleResidueModel, h: PoleResidueModel):
    """Formal complex gradients of the gap at h's parameters, given the
    surrogate for the current delays.

    Returns (db, dc, dl): db[k] is the n_u-vector gradient in b_k, dc[k] the
    n_y-vector gradient in c_k, dl[k] the scalar gradient in lambda_k.

    A real perturbation of a real-pole parameter changes the gap at exactly
    this rate; for a conjugate pair (perturbed jointly to stay real) the real
    coordinates see d/dRe = 2 Re(grad) and d/dIm = -2 Im(grad).
    """
    if gt.ny != h.ny or gt.nu != h.nu:
        raise DimensionMismatch("surrogate and candidate channel counts differ")
    n = h.order
    db = np.zeros((n, h.nu), dtype=complex)
    dc = np.zeros((n, h.ny), dtype=complex)
    dl = np.zeros(n, dtype=complex)
    for k in range(n):
        s = -h.poles[k]
        err = eval_transfer(gt, s) - eval_transfer(h, s)
        derr = eval_transfer_derivative(gt, s) - eval_transfer_derivative(h, s)
        db[k] = -2.0 * (err.T @ h.left[k])
        dc[k] = -2.0 * (err @ h.right[k])
        dl[k] = 2.0 * (h.left[k] @ derr @ h.right[k])
    return db, dc, dl


def interpolation_rows(g: PoleResidueModel, h: PoleResidueModel):
    """Bitangential Hermite defects of ``h`` against ``g`` at h's mirrored
    poles, as three lists over k: ||(H - G)(-lambda_k) b_k||,
    ||c_k^T (H - G)(-lambda_k)|| and |c_k^T (H' - G')(-lambda_k) b_k|."""
    ir, il, ih = [], [], []
    for k in range(h.order):
        s = -h.poles[k]
        err = eval_transfer(h, s) - eval_transfer(g, s)
        derr = eval_transfer_derivative(h, s) - eval_transfer_derivative(g, s)
        ir.append(float(np.linalg.norm(err @ h.right[k])))
        il.append(float(np.linalg.norm(h.left[k] @ err)))
        ih.append(float(abs(h.left[k] @ derr @ h.right[k])))
    return ir, il, ih


def optimality_residuals(g: PoleResidueModel,
                         hd: DelayedModel) -> OptimalityResiduals:
    """All first-order condition defects of a delayed reduced candidate.

    Interpolation rows compare the candidate against the surrogate at the
    mirrored poles; delay rows are the per-channel cross-term derivatives
    (the stationarity defect of the delay choice), 0 where masked off.
    At a zero delay only nonnegative values are feasible, so the row holds
    the projected (one-sided) derivative instead of its magnitude; a
    boundary optimum then reports 0 rather than a spurious defect.
    """
    h = hd.core
    ir, il, ih = interpolation_rows(
        build_gtilde(g, hd.input_delays, hd.output_delays), h)
    _, g_in, g_out, _ = _cross_eval(g, h, hd.input_delays.as_array(),
                                    hd.output_delays.as_array(), order=1)
    def _defect(d: complex, at_zero: bool, what: str) -> float:
        v = _real_or_raise(d, what)
        # The delay step maximizes the cross term over nonnegative delays,
        # so at the boundary only an ascent direction counts as a defect.
        return max(v, 0.0) if at_zero else abs(v)

    d_in = [_defect(g_in[l], hd.input_delays.delays[l] == 0.0,
                    f"delay condition (input {l})")
            if hd.input_delays.mask[l] else 0.0 for l in range(g.nu)]
    d_out = [_defect(g_out[m], hd.output_delays.delays[m] == 0.0,
                     f"delay condition (output {m})")
             if hd.output_delays.mask[m] else 0.0 for m in range(g.ny)]
    return OptimalityResiduals(tuple(ir), tuple(il), tuple(ih),
                               tuple(d_in), tuple(d_out))
