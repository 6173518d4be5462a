"""Residue-based H2 norms, inner products, gap, surrogate, gradients."""

import math

import numpy as np
import pytest

import oracles
from conftest import (
    REF_DELAY_DEFECT,
    REF_INTERP,
    REF_TAU,
    make_siso,
    random_delayed,
    random_pr,
)
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DimensionMismatch,
    IrkaConfig,
    NonRealSum,
    build_gtilde,
    compute_gap,
    eval_transfer,
    gap_gradient,
    h2_norm_pole_residue,
    h2_norm_sq,
    impulse_response,
    inner_product_delayed,
    irka_reduce,
    optimality_residuals,
)


def g1():
    return make_siso([-1.0], [1.0])


def h2_pair():
    return make_siso([-2.0], [1.0])


# ---------------------------------------------------------------------------
# norms


def test_norm_first_order():
    assert h2_norm_pole_residue(g1()) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_norm_homogeneity():
    k = -2.5
    assert h2_norm_pole_residue(make_siso([-1.0], [k])) == pytest.approx(
        abs(k) / np.sqrt(2.0), abs=1e-12)


def test_norm_matches_quadrature_random():
    # Gauss-Legendre in omega = tan(theta) truncates no tail
    rng = np.random.default_rng(41)
    for _ in range(3):
        m = random_pr(rng, 3)
        a = h2_norm_pole_residue(m)
        b = oracles.h2_norm_gauss(m)
        assert abs(a - b) < 1e-10 * a


def test_quadrature_first_order_closed_form():
    got = oracles.h2_norm_quadrature(g1())
    assert abs(got - 1.0 / np.sqrt(2.0)) < 1e-4


def test_quadrature_delay_invariance_first_order():
    m = g1()
    und = oracles.h2_norm_quadrature(m)
    dl = DelayedModel(m, DelayBlock((0.7,), (True,)), DelayBlock((0.3,), (True,)))
    assert abs(oracles.h2_norm_quadrature(dl) - und) < 1e-6


def test_quadrature_matches_pole_residue_on_ref_core(ref_core):
    a = h2_norm_pole_residue(ref_core)
    b = oracles.h2_norm_quadrature(ref_core)
    assert abs(a - b) < 1e-4


def test_norm_rejects_nonclosed():
    with pytest.raises(NonRealSum):
        h2_norm_pole_residue(make_siso([-1.0 + 1.0j], [1.0]))


# ---------------------------------------------------------------------------
# inner products


def test_inner_product_self():
    assert inner_product_delayed(g1(), g1()) == pytest.approx(0.5, abs=1e-12)


def test_inner_product_closed_form_with_delay():
    hd = DelayedModel(h2_pair(), DelayBlock((0.5,), (True,)), DelayBlock.zeros(1))
    got = inner_product_delayed(hd, g1())
    want = np.exp(-0.5) / 3.0
    assert got == pytest.approx(want, abs=1e-12)
    # independent frequency-quadrature route
    omega = oracles.freq_grid()
    gs = oracles.transfer_on_grid([-1.0], [[1.0]], [[1.0]], omega)
    hs = oracles.transfer_on_grid([-2.0], [[1.0]], [[1.0]], omega)
    quad = oracles.simpson_cross(gs, hs, omega, tau_in=[0.5], gam_out=[0.0])
    assert abs(got - quad) < 1e-5


def test_inner_product_delay_free_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(5):
        g = random_pr(rng, int(rng.integers(2, 7)), ny=2, nu=2)
        h = random_pr(rng, int(rng.integers(1, 4)), ny=2, nu=2)
        a = inner_product_delayed(h, g)
        b = inner_product_delayed(g, h)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))
        # equals the candidate-side residue sum
        other = oracles.cross_inner(h.poles, h.left, h.right,
                                    g.poles, g.left, g.right,
                                    np.zeros(2), np.zeros(2))
        assert abs(a - other) < 1e-10 * max(1.0, abs(a))
        assert inner_product_delayed(g, g) > 0.0


def test_inner_product_dimension_mismatch():
    g = random_pr(np.random.default_rng(1), 3, ny=2, nu=2)
    with pytest.raises(DimensionMismatch):
        inner_product_delayed(g1(), g)


# ---------------------------------------------------------------------------
# gap


def test_gap_self_is_zero():
    g = g1()
    gns = h2_norm_sq(g)
    gap = compute_gap(g, DelayedModel.undelayed(g), gns)
    assert abs(gap.j) < 1e-10
    assert gap.j >= 0.0


def test_gap_closed_form():
    g = g1()
    hd = DelayedModel(h2_pair(), DelayBlock((0.5,), (True,)), DelayBlock.zeros(1))
    gap = compute_gap(g, hd, h2_norm_sq(g))
    want = 0.5 - 2.0 * np.exp(-0.5) / 3.0 + 0.25
    assert gap.j == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.345646, abs=1e-6)
    # quadrature of || G - Delta_o H Delta_i ||^2 as an independent route
    omega = np.linspace(-4e4, 4e4, 4_000_001)
    gs = oracles.transfer_on_grid([-1.0], [[1.0]], [[1.0]], omega)
    hs = oracles.transfer_on_grid([-2.0], [[1.0]], [[1.0]], omega)
    hs = hs * np.exp(-1j * omega * 0.5)[:, None, None]
    quad = oracles.simpson_norm_sq(gs - hs, omega)
    assert abs(gap.j - quad) < 1e-4 * gap.j


def test_gap_internal_consistency():
    rng = np.random.default_rng(47)
    for _ in range(10):
        g = random_pr(rng, int(rng.integers(3, 8)), ny=2, nu=2)
        hd = random_delayed(rng, random_pr(rng, 2, ny=2, nu=2))
        gap = compute_gap(g, hd, h2_norm_sq(g))
        assembled = gap.norm_g_sq - 2.0 * gap.cross + gap.norm_h_sq
        assert abs(gap.j - assembled) <= 1e-12 * max(1.0, abs(assembled))
        assert gap.j >= 0.0
        assert gap.terms == (gap.norm_g_sq, gap.cross, gap.norm_h_sq)


# ---------------------------------------------------------------------------
# surrogate


def test_gtilde_zero_delay_identity():
    g = random_pr(np.random.default_rng(51), 5, ny=2, nu=2)
    gt = build_gtilde(g, DelayBlock.zeros(2), DelayBlock.zeros(2))
    assert np.array_equal(gt.poles, g.poles)
    assert np.array_equal(gt.left, g.left)
    assert np.array_equal(gt.right, g.right)


def test_gtilde_siso_scaling():
    g = make_siso([-1.0 + 2.0j, -1.0 - 2.0j], [0.3 + 0.1j, 0.3 - 0.1j])
    tau = 0.8
    gt = build_gtilde(g, DelayBlock((tau,), (True,)), DelayBlock.zeros(1))
    want = g.left[:, 0] * g.right[:, 0] * np.exp(g.poles * tau)
    got = gt.left[:, 0] * gt.right[:, 0]
    assert np.allclose(got, want, rtol=1e-13)
    assert np.array_equal(gt.poles, g.poles)


def test_gtilde_preserves_closure():
    rng = np.random.default_rng(53)
    g = random_pr(rng, 6, ny=2, nu=3)
    gt = build_gtilde(g, DelayBlock(tuple(rng.uniform(0, 2, 3))),
                      DelayBlock(tuple(rng.uniform(0, 2, 2))))
    from delayh2 import realify_check
    assert realify_check(gt)


def test_gtilde_advance_property():
    rng = np.random.default_rng(54)
    t = np.linspace(0.0, 6.0, 1000)
    for _ in range(3):
        g = random_pr(rng, int(rng.integers(2, 7)))
        tau = float(rng.uniform(0.2, 2.0))
        gt = build_gtilde(g, DelayBlock((tau,), (True,)), DelayBlock.zeros(1))
        adv = impulse_response(gt, t)[0, 0]
        base = impulse_response(g, t + tau)[0, 0]
        assert np.max(np.abs(adv - base)) < 1e-10


# ---------------------------------------------------------------------------
# gradients


def _gap_fn(g, h, masks):
    gns = h2_norm_sq(g)
    in_mask, out_mask = masks

    def f(tau_in, gam_out):
        hd = DelayedModel(h, DelayBlock(tuple(tau_in), in_mask),
                          DelayBlock(tuple(gam_out), out_mask))
        return compute_gap(g, hd, gns).j
    return f


def test_grad_delays_matches_fd():
    rng = np.random.default_rng(61)
    for _ in range(10):
        g = random_pr(rng, int(rng.integers(3, 8)), ny=2, nu=2)
        h = random_pr(rng, int(rng.integers(1, 4)), ny=2, nu=2)
        tau = rng.uniform(0.1, 1.5, 2)
        gam = rng.uniform(0.1, 1.5, 2)
        hd = DelayedModel(h, DelayBlock(tuple(tau)), DelayBlock(tuple(gam)))
        *_, an_in, an_out = gap_gradient(g, hd)
        fd_in, fd_out = oracles.fd_delay_grad(
            _gap_fn(g, h, ((True, True), (True, True))), tau, gam)
        scale = max(1.0, np.max(np.abs(fd_in)), np.max(np.abs(fd_out)))
        assert np.max(np.abs(an_in - fd_in)) < 1e-5 * scale
        assert np.max(np.abs(an_out - fd_out)) < 1e-5 * scale


def test_grad_delays_masked_channels_zero():
    rng = np.random.default_rng(62)
    g = random_pr(rng, 5, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    hd = DelayedModel(h, DelayBlock((0.7, 0.0), (True, False)),
                      DelayBlock((0.0, 0.0), (False, False)))
    *_, gin, gout = gap_gradient(g, hd)
    assert gin[1] == 0.0
    assert np.all(gout == 0.0)
    assert gin[0] != 0.0


def test_grad_residues_poles_matches_fd():
    rng = np.random.default_rng(63)
    for _ in range(6):
        g = random_pr(rng, int(rng.integers(3, 8)), ny=2, nu=2)
        h = random_pr(rng, int(rng.integers(1, 4)), ny=2, nu=2)
        tau = rng.uniform(0.1, 1.0, 2)
        gam = rng.uniform(0.1, 1.0, 2)
        din, dout = DelayBlock(tuple(tau)), DelayBlock(tuple(gam))
        gns = h2_norm_sq(g)
        dc, db, dl, _, _ = gap_gradient(g, DelayedModel(h, din, dout))

        from delayh2 import PoleResidueModel

        def gap_L(L):
            hh = PoleResidueModel(h.poles, L, h.right)
            return compute_gap(g, DelayedModel(hh, din, dout), gns).j

        def gap_R(R):
            hh = PoleResidueModel(h.poles, h.left, R)
            return compute_gap(g, DelayedModel(hh, din, dout), gns).j

        def gap_P(P):
            hh = PoleResidueModel(P, h.left, h.right)
            return compute_gap(g, DelayedModel(hh, din, dout), gns).j

        fd_dc = oracles.fd_complex_grad(gap_L, h.left, h.poles)
        fd_db = oracles.fd_complex_grad(gap_R, h.right, h.poles)
        fd_dl = oracles.fd_complex_grad(gap_P, h.poles, h.poles)
        scale = max(1.0, np.max(np.abs(fd_dc)), np.max(np.abs(fd_db)),
                    np.max(np.abs(fd_dl)))
        assert np.max(np.abs(dc - fd_dc)) < 1e-5 * scale
        assert np.max(np.abs(db - fd_db)) < 1e-5 * scale
        assert np.max(np.abs(dl - fd_dl)) < 1e-5 * scale


def test_gradients_vanish_at_interpolatory_point():
    rng = np.random.default_rng(64)
    g = random_pr(rng, 6)
    res = irka_reduce(g, IrkaConfig(order=2, shift_tol=1e-13, max_iters=500))
    assert res.converged
    dc, db, dl, _, _ = gap_gradient(g, res.model)
    assert max(np.max(np.abs(db)), np.max(np.abs(dc)), np.max(np.abs(dl))) < 1e-8


# ---------------------------------------------------------------------------
# optimality residuals


def test_residuals_at_reference_point(bench20, ref_core):
    hd = DelayedModel(ref_core, DelayBlock((REF_TAU,), (True,)),
                      DelayBlock.zeros(1))
    r = optimality_residuals(bench20, hd)
    assert max(r.interp_right) < 1e-4
    assert max(r.interp_left) < 1e-4
    assert max(r.interp_hermite) < 1e-4
    # stationarity defect of the reference delay, reported to 5 digits
    assert r.delay_in[0] == pytest.approx(REF_DELAY_DEFECT, abs=2e-6)
    assert r.delay_out == (0.0,)
    # the defect equals half the gap's delay gradient magnitude
    gin = gap_gradient(bench20, hd)[3]
    assert abs(gin[0]) == pytest.approx(2.0 * r.delay_in[0], rel=1e-9)
    # interpolation value at the mirrored pole; the reported number is
    # the one at the -Im pole (its partner gives the conjugate)
    lam = ref_core.poles[np.argmin(ref_core.poles.imag)]
    val = eval_transfer(ref_core, -lam)[0, 0]
    assert val == pytest.approx(REF_INTERP, abs=1e-3)


def _loop_transfer_derivative(poles, left, right, s):
    """-sum_j l_j r_j^T / (s - mu_j)^2 by explicit loop, one point."""
    return -sum(np.outer(l, r) / (s - p) ** 2 for p, l, r in zip(poles, left, right))


def test_residuals_match_their_definition():
    # Hermite defects against a hand-built surrogate, with no call into the
    # library's first-order code; input 1 is masked and output 0 sits at 0
    boundary_hits = 0
    for seed in range(6):
        rng = np.random.default_rng(700 + seed)
        g = random_pr(rng, 6, ny=2, nu=2)
        h = random_pr(rng, 3, ny=2, nu=2)
        tau = np.array([rng.uniform(0.2, 1.5), 0.0])
        gam = np.array([0.0, rng.uniform(0.2, 1.5)])
        hd = DelayedModel(h, DelayBlock(tuple(tau), (True, False)),
                          DelayBlock(tuple(gam), (True, True)))
        scale = np.exp(np.outer(g.poles, gam)), np.exp(np.outer(g.poles, tau))
        gl, gr = g.left * scale[0], g.right * scale[1]
        want = [], [], []
        for lam, c, b in zip(h.poles, h.left, h.right):
            err = (oracles.pr_transfer(h.poles, h.left, h.right, -lam)
                   - oracles.pr_transfer(g.poles, gl, gr, -lam))
            derr = (_loop_transfer_derivative(h.poles, h.left, h.right, -lam)
                    - _loop_transfer_derivative(g.poles, gl, gr, -lam))
            want[0].append(np.linalg.norm(err @ b))
            want[1].append(np.linalg.norm(c @ err))
            want[2].append(abs(c @ derr @ b))
        r = optimality_residuals(g, hd)
        for got, ref in zip((r.interp_right, r.interp_left, r.interp_hermite), want):
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
        # d cross / d gamma_0 by loop: the surrogate's output-0 row times mu_j
        d_gam0 = sum(p * gl[j, 0] * (oracles.pr_transfer(h.poles, h.left, h.right,
                                                        -p) @ gr[j])[0]
                     for j, p in enumerate(g.poles)).real
        assert math.copysign(1.0, r.delay_in[1]) == 1.0 and r.delay_in[1] == 0.0
        if d_gam0 <= 0.0:
            boundary_hits += 1
            assert r.delay_out[0] == 0.0
            assert math.copysign(1.0, r.delay_out[0]) == 1.0
        else:
            assert r.delay_out[0] == pytest.approx(d_gam0, rel=1e-12)
    assert boundary_hits > 0


def test_residuals_boundary_delay_projection():
    # cross term decays in tau here, so zero delay is a boundary optimum
    g = make_siso([-1.0], [1.0])
    h = make_siso([-1.1], [0.9])
    at_zero = DelayedModel(h, DelayBlock((0.0,), (True,)), DelayBlock((0.0,), (True,)))
    r0 = optimality_residuals(g, at_zero)
    assert r0.delay_in == (0.0,)
    assert r0.delay_out == (0.0,)
    interior = DelayedModel(h, DelayBlock((0.3,), (True,)), DelayBlock.zeros(1))
    r1 = optimality_residuals(g, interior)
    assert r1.delay_in[0] > 0.1


def test_residuals_masked_channels_zero():
    rng = np.random.default_rng(66)
    g = random_pr(rng, 5, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    hd = DelayedModel(h, DelayBlock((0.4, 0.0), (True, False)),
                      DelayBlock.none(2))
    r = optimality_residuals(g, hd)
    assert r.delay_in[1] == 0.0
    assert r.delay_out == (0.0, 0.0)
    assert r.max_residual() >= max(r.interp_right + r.interp_left
                                   + r.interp_hermite)
