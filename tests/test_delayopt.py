"""Box-constrained delay search maximizing the cross inner product."""

import itertools

import numpy as np
import pytest

import oracles
from conftest import REF_TAU, lag_cascade, make_siso, payload_model, random_pr
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DelaySearchConfig,
    h2_norm_pole_residue,
    h2_norm_sq,
    inner_product_delayed,
    optimize_delays,
)
from delayh2.delayopt import _Objective, _scan
from delayh2.h2 import _delay_sum


def cross_at(g, h, tau, gam):
    """The search objective: <H delayed by (tau, gamma), G>."""
    return inner_product_delayed(
        DelayedModel(h, DelayBlock(tau), DelayBlock(gam)), g)


def test_self_pair_optimum_is_zero_delay():
    rng = np.random.default_rng(81)
    for _ in range(3):
        g = random_pr(rng, int(rng.integers(2, 6)), ny=2, nu=2)
        din, dout = optimize_delays(g, g, DelaySearchConfig(
            grid_points_per_channel=60, tau_max=4.0))
        x = np.concatenate([din.as_array(), dout.as_array()])
        assert np.max(x) < 1e-7
        val = cross_at(g, g, din.as_array(), dout.as_array())
        assert val == pytest.approx(h2_norm_sq(g), rel=1e-10)


def test_monotone_closed_form_pair():
    # cross(tau) = e^{-tau}/3 for G = 1/(s+1), H = 1/(s+2): argmax at 0
    g = make_siso([-1.0], [1.0])
    h = make_siso([-2.0], [1.0])
    din, dout = optimize_delays(g, h, DelaySearchConfig(
        tau_max=5.0, output_mask=(False,), extend_box=False))
    assert din.delays[0] == pytest.approx(0.0, abs=1e-12)
    taus = np.linspace(0.0, 5.0, 100_001)
    dense = np.exp(-taus) / 3.0
    got = cross_at(g, h, din.as_array(), dout.as_array())
    assert got >= np.max(dense) - 1e-12
    # spot-check the package objective against the closed form
    probe = cross_at(g, h, np.array([1.3]), np.array([0.0]))
    assert probe == pytest.approx(np.exp(-1.3) / 3.0, rel=1e-12)


def test_objective_decays_to_zero():
    rng = np.random.default_rng(82)
    g = random_pr(rng, 4)
    h = random_pr(rng, 2)
    tau_max = 5.0 / float(np.min(np.abs(g.poles.real)))
    far = cross_at(g, h, np.array([100.0 * tau_max]), np.array([0.0]))
    bound = 1e-6 * h2_norm_pole_residue(g) * h2_norm_pole_residue(h)
    assert abs(far) < bound


def test_reference_delay_step(bench20, ref_core):
    """One exact delay step from the reference core of the N=20 benchmark.

    The reported delay 8.7179 carries a stationarity defect of 9.7e-5; at
    the measured curvature 5.1e-3 of the cross term that displaces the true
    argmax for this core by ~0.019, to 8.6986. The step starts from a box
    of 5 (five slowest time constants) and must auto-extend past it.
    """
    din, dout = optimize_delays(bench20, ref_core, DelaySearchConfig(
        input_mask=(True,), output_mask=(False,)))
    tau = din.delays[0]
    assert dout.delays == (0.0,)
    assert tau > 5.0
    assert tau == pytest.approx(8.69862, abs=1e-3)
    assert tau == pytest.approx(REF_TAU, abs=2.5e-2)
    got = cross_at(bench20, ref_core, din.as_array(), dout.as_array())
    at_ref = cross_at(bench20, ref_core, np.array([REF_TAU]),
                             np.array([0.0]))
    assert got >= at_ref


def test_returned_point_dominates_grid():
    rng = np.random.default_rng(83)
    for _ in range(5):
        g = random_pr(rng, int(rng.integers(3, 7)))
        h = random_pr(rng, 2)
        cfg = DelaySearchConfig(grid_points_per_channel=41, tau_max=3.0,
                                extend_box=False)
        din, dout = optimize_delays(g, h, cfg)
        got = cross_at(g, h, din.as_array(), dout.as_array())
        axis = np.linspace(0.0, 3.0, 41)
        for t_in in axis:
            for t_out in axis:
                sample = cross_at(g, h, np.array([t_in]), np.array([t_out]))
                assert got >= sample - 1e-11 * max(1.0, abs(sample))
        assert got >= cross_at(g, h, np.zeros(1), np.zeros(1)) - 1e-12


def test_interior_gradient_below_tolerance():
    # with both channels delayed the search returns gamma = 0 and tau over
    # the path range [0, 2 tau_max]. gamma = 0 is the gauge, not a boundary:
    # both derivatives are probed at the same model moved along the gauge
    # to (tau - s, gamma + s), where gamma - eps is still a delay
    rng = np.random.default_rng(84)
    checked = 0
    for _ in range(8):
        g = random_pr(rng, int(rng.integers(3, 7)))
        h = random_pr(rng, 2)
        cfg = DelaySearchConfig(grid_points_per_channel=80, tau_max=6.0,
                                extend_box=False)
        din, dout = optimize_delays(g, h, cfg)
        x = np.array([din.delays[0], dout.delays[0]])
        assert x[1] == 0.0
        eps = 1e-5
        s = 2 * eps
        if x[0] <= s + eps or x[0] >= 12.0 - 1e-9:
            continue
        checked += 1

        def f(v):
            return cross_at(g, h, v[:1] - s, v[1:] + s)
        for i in range(2):
            xp = x.copy()
            xm = x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (f(xp) - f(xm)) / (2 * eps)
            assert abs(fd) < 1e-6
    assert checked >= 1


def test_masks_pin_channels():
    rng = np.random.default_rng(85)
    g = random_pr(rng, 5, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    cfg = DelaySearchConfig(grid_points_per_channel=30, tau_max=2.0,
                            extend_box=False,
                            input_mask=(True, False), output_mask=(False, True))
    din, dout = optimize_delays(g, h, cfg)
    assert din.delays[1] == 0.0
    assert dout.delays[0] == 0.0
    assert din.mask == (True, False)
    assert dout.mask == (False, True)


def test_all_masked_returns_zeros():
    rng = np.random.default_rng(86)
    g = random_pr(rng, 4, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    din, dout = optimize_delays(g, h, DelaySearchConfig(
        input_mask=(False, False), output_mask=(False, False)))
    assert din.delays == (0.0, 0.0)
    assert dout.delays == (0.0, 0.0)


def test_matches_independent_dense_scan():
    # oscillatory SISO objective: compare the winner against a dense scan
    # evaluated with the plain-loop oracle
    rng = np.random.default_rng(87)
    for _ in range(3):
        g = random_pr(rng, 4)
        h = random_pr(rng, 2)
        cfg = DelaySearchConfig(tau_max=8.0, output_mask=(False,),
                                extend_box=False)
        din, _ = optimize_delays(g, h, cfg)
        got = oracles.cross_inner(g.poles, g.left, g.right,
                                  h.poles, h.left, h.right,
                                  [din.delays[0]], [0.0])
        taus = np.linspace(0.0, 8.0, 20_001)
        dense = np.array([oracles.cross_inner(g.poles, g.left, g.right,
                                              h.poles, h.left, h.right,
                                              [t], [0.0]) for t in taus])
        assert got >= np.max(dense) - 1e-9 * max(1.0, abs(got))


def test_landscape_csv_written(tmp_path):
    # SISO io is one gauge face: gamma = 0, tau over [0, 2 tau_max] at the
    # box spacing, so 2 * 15 - 1 points
    rng = np.random.default_rng(88)
    g = random_pr(rng, 3)
    h = random_pr(rng, 2)
    path = tmp_path / "landscape.csv"
    cfg = DelaySearchConfig(grid_points_per_channel=15, tau_max=2.0,
                            extend_box=False, landscape_csv=str(path))
    optimize_delays(g, h, cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_1,gamma_1,objective"
    assert len(lines) == 1 + (2 * 15 - 1)
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert rows.shape == (2 * 15 - 1, 3)
    assert np.all(rows[:, 1] == 0.0)
    assert rows[-1, 0] == pytest.approx(4.0, rel=1e-12)


def test_mimo_io_dominates_full_box_grid():
    # 2x2 with every channel delayed: the gauge faces cover every model of
    # the full box grid, and the result is the min gamma = 0 representative
    rng = np.random.default_rng(90)
    g = lag_cascade(rng, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    cfg = DelaySearchConfig(grid_points_per_channel=9, tau_max=3.0,
                            extend_box=False)
    din, dout = optimize_delays(g, h, cfg)
    assert min(dout.delays) == 0.0
    got = cross_at(g, h, din.as_array(), dout.as_array())
    axis = np.linspace(0.0, 3.0, 9)
    for p in itertools.product(axis, repeat=4):
        sample = cross_at(g, h, np.array(p[:2]), np.array(p[2:]))
        assert got >= sample - 1e-11 * max(1.0, abs(sample))


@pytest.mark.parametrize("ny, nu, input_mask, output_mask", [
    (1, 1, (True,), (True,)),
    (2, 2, (True, True), (False, False)),
    (2, 3, (True, False, True), (False, True)),
    (2, 2, (True, True), (True, True)),
], ids=["siso-io", "2x2-inputs", "2x3-mask-101-01", "2x2-io-cyclic"])
def test_scan_matches_exact_kernel(ny, nu, input_mask, output_mask):
    # the per-channel-pair table screen against the exact kernel at every
    # returned point, on the joint grid (k <= 3) and the cyclic scans (k = 4)
    rng = np.random.default_rng(89)
    g = random_pr(rng, 5, ny=ny, nu=nu)
    h = random_pr(rng, 2, ny=ny, nu=nu)
    act_in = np.flatnonzero(input_mask)
    act_out = np.flatnonzero(output_mask)
    k_act = act_in.size + act_out.size
    obj = _Objective(g, h, act_in, act_out)
    points, values = _scan(obj, k_act, 3.0,
                           DelaySearchConfig(grid_points_per_channel=20))
    assert points.shape == (values.size, k_act)
    assert values.size == (20 ** k_act if k_act <= 3 else 2 * k_act * 20)
    exact = np.array([obj.value(p) for p in points])
    assert np.max(np.abs(values - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("output_mask, face", [((False,), False), ((True,), True)],
                         ids=["siso-input", "siso-io-face"])
def test_joint_budget_caps_one_axis_grids(output_mask, face):
    # a search with one coordinate scans one axis; the budget caps it too,
    # whatever grid_points_per_channel asks for
    rng = np.random.default_rng(90)
    g, h = random_pr(rng, 4), random_pr(rng, 2)
    obj = _Objective(g, h, np.array([0]), np.flatnonzero(output_mask))
    if face:
        obj = obj.gauge_face(0)
    assert obj.span.size == 1
    points, values = _scan(obj, 1, 3.0, DelaySearchConfig(
        grid_points_per_channel=10 ** 5, joint_grid_budget=500))
    assert 2 <= values.size == points.shape[0] <= 500


@pytest.mark.parametrize("payload", [False, True], ids=["float", "payload"])
@pytest.mark.parametrize("input_mask, output_mask, pinned", [
    ((True, False), (False, True), None),
    ((True, True), (False, False), None),
    ((False, False), (True, False), None),
    ((True, True), (True, True), 1),
], ids=["mask-10-01", "inputs", "outputs", "io-face-1"])
def test_objective_derivatives_are_full_kernel_blocks(payload, input_mask,
                                                      output_mask, pinned):
    # the objective asks the kernel only for its active sides; its gradient
    # and Hessian are bit for bit the active rows and columns of the full
    # order-2 kernel at the same delays
    rng = np.random.default_rng(91)
    g = random_pr(rng, 6, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    if payload:
        g = payload_model(g, 30)
    obj = _Objective(g, h, np.flatnonzero(input_mask), np.flatnonzero(output_mask))
    if pinned is not None:
        obj = obj.gauge_face(pinned)
    x = rng.uniform(0.1, 2.0, obj.span.size)
    f, grad, hess = obj.value_grad_hess(x)
    tau, gam = obj.full_vectors(x)
    f_full, g_in, g_out, h_full = _delay_sum(obj.bk, obj.mu, obj.k, tau, gam, 2)
    idx = np.concatenate([obj.act_in, g.nu + obj.act_out])
    assert f == float(np.real(f_full))
    assert np.array_equal(grad, np.concatenate([g_in.real, g_out.real])[idx])
    assert np.array_equal(hess, h_full.real[np.ix_(idx, idx)])


def test_config_validation():
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(grid_points_per_channel=1)
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(tau_max=0.0)
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(tau_max=np.inf)
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(refine_tol=0.0)
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(refine_tol=np.inf)
