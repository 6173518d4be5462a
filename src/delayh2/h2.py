"""Residue-based H2 algebra.

Everything here reduces to one kernel: the cross inner product between a
delayed reduced model and the full model,

    cross(tau, gamma) = sum_j l_j^T diag(e^{mu_j gamma}) H(-mu_j) diag(e^{mu_j tau}) r_j,

summed over the full model's terms (mu_j, l_j, r_j), together with its first
and second derivatives in the delays (each derivative multiplies the (m, l)
channel term by mu_j once more). Norms are the zero-delay self case, and the
gap is assembled from three such numbers. :func:`gap_gradient` is the one
first-order computation: the gap's gradient in the residues and poles
(transfer-value defects at the mirrored poles against the delay-advanced
surrogate, from :func:`delayh2.models.transfer_values`, the kernel the IRKA
pencil reads, summed at every pole) and in the delays (-2x the cross
derivative). The optimality
residuals, and with them every first-order certificate, are half its
magnitudes. The kernel has two stages: the zero-delay term
tensor K[j, m, l] = l_jm H(-mu_j)_ml r_jl, with H(-mu_j) read from the
transfer kernel that the IRKA pencil reads
(:meth:`delayh2.precision.Backend.resolvent_sums`), and the delayed sum of
K against e^{mu_j (gamma_m + tau_l)}, which the delay search reuses on a
cached K. Both are
written once against :mod:`delayh2.precision`: when a model carries the
high-precision payload they run in its precision, on the backend's
Gaussian-integer scalar (which takes only its own operands), because the
float64 sum loses everything to cancellation for badly conditioned
residue sets. The delay-advanced surrogate (:func:`build_gtilde`) is one
more such array expression, and on a payload its result is the
surrogate's payload.
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
    transfer_values,
)
from .precision import Backend, TermMemo, backend_for


@dataclass(frozen=True)
class GapValue:
    """Squared-H2 mismatch j = norm_g_sq - 2*cross + norm_h_sq, with parts."""

    j: float
    norm_g_sq: float
    cross: float
    norm_h_sq: float


@dataclass(frozen=True)
class OptimalityResiduals:
    """Magnitudes of the first-order condition defects of a candidate,
    each half the matching block of :func:`gap_gradient`.

    ``interp_right[k]`` = ||(H - Gt)(-lambda_k) b_k|| (the c_k block),
    ``interp_left[k]``  = ||c_k^T (H - Gt)(-lambda_k)|| (the b_k block),
    ``interp_hermite[k]`` = |c_k^T (H' - Gt')(-lambda_k) b_k| (lambda_k),
    ``delay_in[l]`` / ``delay_out[m]`` = |d cross / d delay| per channel
    (one-sided at a zero delay, 0 on masked-off channels).
    """

    interp_right: tuple
    interp_left: tuple
    interp_hermite: tuple
    delay_in: tuple
    delay_out: tuple

    def max_residual(self) -> float:
        """The largest defect; NaN if any defect is NaN, 0.0 if there are none."""
        rows = np.concatenate([self.interp_right, self.interp_left,
                               self.interp_hermite, self.delay_in, self.delay_out])
        return float(np.max(rows)) if rows.size else 0.0


# ---------------------------------------------------------------------------
# the cross kernel


def _cross_tensor(bk: Backend, g: PoleResidueModel, h: PoleResidueModel):
    """g's poles mu and the zero-delay cross terms
    K[j, m, l] = l_jm H(-mu_j)_ml r_jl, both in ``bk``'s precision; H(-mu)
    comes from the transfer kernel (:meth:`Backend.resolvent_sums`)."""
    with bk.context():
        mu, gl, gr = bk.terms(g)
        hval, _ = bk.resolvent_sums(-mu, h, derivative=False)
        return mu, gl[:, :, None] * hval * gr[:, None, :]


def _delayed_terms(bk: Backend, mu, ktensor, tau: np.ndarray, gam: np.ndarray,
                   memo: TermMemo | None = None):
    """The cross terms under delays (tau, gamma),
    K[j, m, l] e^{mu_j (gamma_m + tau_l)}, in ``bk``'s precision; ``memo``
    is the full model's (:meth:`Backend.delay_exp`)."""
    with bk.context():
        # e^0 = 1 exactly, so a side without delays skips its exponentials
        core = ktensor
        if np.any(gam):
            core = core * bk.delay_exp(mu, gam, memo)[:, :, None]
        if np.any(tau):
            core = core * bk.delay_exp(mu, tau, memo)[:, None, :]
    return core


def _term_sums(bk: Backend, mu, core, order: int, sides=(True, True), mu2=None):
    """Sum of delayed cross terms (see :func:`_delayed_terms`), with derivatives.

    Returns (f, grad_in, grad_out, hess) as complex128 data; entries past
    ``order`` are None. ``sides`` says which of (inputs, outputs) the
    derivatives are wanted for: a side left out has grad None and no rows
    in ``hess``, which is over the stacked coordinates of the wanted sides
    (inputs first, then outputs). ``mu2`` is mu*mu in ``bk``'s precision,
    formed here when not given.
    """
    with bk.context():
        f = bk.to_complex(core.sum())
        g_in = g_out = hess = None
        want_in, want_out = sides
        if order >= 1:
            if want_in:
                g_in = bk.to_complex(np.einsum("j,jml->l", mu, core))
            if want_out:
                g_out = bk.to_complex(np.einsum("j,jml->m", mu, core))
        if order >= 2:
            mu2 = mu * mu if mu2 is None else mu2
            nu = core.shape[2] if want_in else 0
            ny = core.shape[1] if want_out else 0
            hess = np.zeros((nu + ny, nu + ny), dtype=complex)
            if want_in:
                hess[:nu, :nu] = np.diag(bk.to_complex(np.einsum("j,jml->l", mu2, core)))
            if want_out:
                hess[nu:, nu:] = np.diag(bk.to_complex(np.einsum("j,jml->m", mu2, core)))
            if want_in and want_out:
                hess[:nu, nu:] = bk.to_complex(np.einsum("j,jml->lm", mu2, core))
                hess[nu:, :nu] = hess[:nu, nu:].T
    return f, g_in, g_out, hess


def _cross_eval(g: PoleResidueModel, h: PoleResidueModel,
                tau: np.ndarray, gam: np.ndarray, order: int = 0):
    """Cross inner product of diag(e^{-s gamma}) H diag(e^{-s tau}) against g,
    with optional delay derivatives (see :func:`_term_sums`)."""
    if g.ny != h.ny or g.nu != h.nu:
        raise DimensionMismatch(
            f"channel mismatch: ({g.ny}x{g.nu}) vs ({h.ny}x{h.nu})"
        )
    bk = backend_for(g, h)
    mu, ktensor = _cross_tensor(bk, g, h)
    core = _delayed_terms(bk, mu, ktensor, np.asarray(tau, dtype=float),
                          np.asarray(gam, dtype=float), g.memo)
    return _term_sums(bk, mu, core, order)


def _real_or_raise(value: complex, what: str) -> float:
    """Re value; NonRealSum where |Im value| >= IMAG_TOL max(1, |Re value|)."""
    if abs(np.imag(value)) >= IMAG_TOL * max(1.0, abs(np.real(value))):
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
                g_norm_sq: float, norm_h_sq: float | None = None) -> GapValue:
    """Assemble the squared mismatch from its three terms.

    ``g_norm_sq`` is passed in because it is constant across a reduction run
    (compute it once with :func:`h2_norm_sq`); ``norm_h_sq`` as in
    :func:`gap_from_cross`.
    """
    hd = _as_delayed(hd)
    f, _, _, _ = _cross_eval(g, hd.core, hd.input_delays.as_array(),
                             hd.output_delays.as_array(), order=0)
    return gap_from_cross(g_norm_sq, f, hd.core, norm_h_sq)


def gap_from_cross(g_norm_sq: float, cross_sum: complex,
                   core: PoleResidueModel, norm_h_sq: float | None = None) -> GapValue:
    """The gap of a delayed model with this core, from the cross kernel's
    complex sum at its delays (as :func:`compute_gap` forms it, or as
    :class:`delayh2.delayopt.DelaySearchResult` carries it). ``norm_h_sq``
    is :func:`h2_norm_sq` of the core when the caller has it (as
    :class:`delayh2.irka.IrkaResult` carries it), formed here otherwise. A
    gap below -1e-9 max(1, ||G||^2 + ||H||^2) raises NegativeNormSquared."""
    cross = _real_or_raise(cross_sum, "inner product")
    if norm_h_sq is None:
        norm_h_sq = h2_norm_sq(core)
    j = g_norm_sq - 2.0 * cross + norm_h_sq
    if j < -1e-9 * max(1.0, g_norm_sq + norm_h_sq):
        raise NegativeNormSquared(f"gap {j:.3e} below -1e-9 max(1, |G|^2 + |H|^2)")
    return GapValue(j=max(j, 0.0), norm_g_sq=float(g_norm_sq),
                    cross=cross, norm_h_sq=norm_h_sq)


def build_gtilde(g: PoleResidueModel,
                 input_delays: DelayBlock,
                 output_delays: DelayBlock) -> PoleResidueModel:
    """Delay-advanced surrogate: same poles, residues scaled channel-wise by
    e^{mu_j * delay} so that its impulse response is the original's advanced
    by the delays (per channel pair). On a payload the scaled residues, in
    its precision, are the surrogate's payload."""
    if len(input_delays) != g.nu or len(output_delays) != g.ny:
        raise DimensionMismatch("delay block lengths do not match model channels")
    tau = input_delays.as_array()
    gam = output_delays.as_array()
    bk = backend_for(g)
    with bk.context():
        mu, left, right = bk.terms(g)
        # e^0 = 1 exactly, so a side without delays keeps its residues
        if np.any(gam):
            left = left * bk.delay_exp(mu, gam, g.memo)
        if np.any(tau):
            right = right * bk.delay_exp(mu, tau, g.memo)
    hp = None if g.hp is None else HighPrecisionTerms(mu, left, right, g.hp.dps)
    return PoleResidueModel(g.poles.copy(), bk.to_complex(left), bk.to_complex(right), hp=hp)


# ---------------------------------------------------------------------------
# first-order conditions


def gap_gradient(g: PoleResidueModel, hd: DelayedModel | PoleResidueModel):
    """Gradient of the gap j = ||G - Hd||^2 in every parameter of ``hd``.

    Returns (d_left, d_right, d_poles, d_in, d_out). The first three are
    formal complex gradients at the core's terms, taken against the
    delay-advanced surrogate Gt (see :func:`build_gtilde`): d_left[k], the
    n_y-vector in c_k, is -2 (Gt - H)(-lambda_k) b_k; d_right[k], the
    n_u-vector in b_k, is -2 c_k^T (Gt - H)(-lambda_k); d_poles[k] is
    2 c_k^T (Gt' - H')(-lambda_k) b_k. A real perturbation of a real-pole
    parameter changes the gap at exactly this rate; for a conjugate pair
    (perturbed jointly to stay real) the real coordinates see
    d/dRe = 2 Re(grad) and d/dIm = -2 Im(grad). d_in and d_out are the
    real delay gradients, -2x the cross term's delay derivative, and
    exactly 0 on masked-off channels. With no delayable channel Gt is
    ``g`` itself and neither the surrogate nor the delay kernel is formed.
    """
    hd = _as_delayed(hd)
    h = hd.core
    if g.ny != h.ny or g.nu != h.nu:
        raise DimensionMismatch(
            f"channel mismatch: ({g.ny}x{g.nu}) vs ({h.ny}x{h.nu})")
    d_in, d_out = np.zeros(g.nu), np.zeros(g.ny)
    gt = g
    if any(hd.input_delays.mask + hd.output_delays.mask):
        gt = build_gtilde(g, hd.input_delays, hd.output_delays)
        _, c_in, c_out, _ = _cross_eval(g, h, hd.input_delays.as_array(),
                                        hd.output_delays.as_array(), order=1)
        for l in np.flatnonzero(hd.input_delays.mask):
            d_in[l] = -2.0 * _real_or_raise(c_in[l], f"delay gradient (input {l})")
        for m in np.flatnonzero(hd.output_delays.mask):
            d_out[m] = -2.0 * _real_or_raise(c_out[m], f"delay gradient (output {m})")
    n = h.order
    d_left = np.zeros((n, h.ny), dtype=complex)
    d_right = np.zeros((n, h.nu), dtype=complex)
    d_poles = np.zeros(n, dtype=complex)
    (gt_val, gt_nder), (h_val, h_nder) = (transfer_values(m, -h.poles) for m in (gt, h))
    for k in range(n):
        err = gt_val[k] - h_val[k]
        d_left[k] = -2.0 * (err @ h.right[k])
        d_right[k] = -2.0 * (h.left[k] @ err)
        d_poles[k] = 2.0 * (h.left[k] @ (h_nder[k] - gt_nder[k]) @ h.right[k])
    return d_left, d_right, d_poles, d_in, d_out


def optimality_residuals(g: PoleResidueModel,
                         hd: DelayedModel | PoleResidueModel) -> OptimalityResiduals:
    """All first-order condition defects of a reduced candidate: half the
    magnitudes of the :func:`gap_gradient` blocks.

    Each residue block gives a vector norm, each pole and delay a modulus.
    At a zero delay only nonnegative values are feasible, so that row holds
    the projected (one-sided) derivative instead of its magnitude; a
    boundary optimum then reports 0 rather than a spurious defect.
    Masked-off channels report 0.
    """
    hd = _as_delayed(hd)
    d_left, d_right, d_poles, d_in, d_out = gap_gradient(g, hd)
    half_norm = lambda v: 0.5 * float(np.linalg.norm(v))

    def delay_row(d: float, keep: bool, at: float) -> float:
        if not keep:
            return 0.0  # a literal +0.0: max(-0.0, 0.0) would keep the -0.0
        # v is the cross derivative the delay step ascends over delays >= 0,
        # so at the boundary only an ascent direction counts as a defect
        v = -0.5 * float(d)
        return max(v, 0.0) if at == 0.0 else abs(v)

    rows = lambda grad, block: tuple(map(delay_row, grad, block.mask, block.delays))
    return OptimalityResiduals(
        tuple(map(half_norm, d_left)), tuple(map(half_norm, d_right)),
        tuple(0.5 * float(abs(v)) for v in d_poles),
        rows(d_in, hd.input_delays), rows(d_out, hd.output_delays))
