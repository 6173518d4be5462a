"""Box-constrained delay search maximizing the cross inner product."""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import REF_TAU, lag_cascade, make_siso, payload_model, random_pr
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DelaySearchConfig,
    DimensionMismatch,
    IrkaConfig,
    PoleResidueModel,
    compute_gap,
    delayopt,
    h2_norm_pole_residue,
    h2_norm_sq,
    inner_product_delayed,
    irka_reduce,
    optimize_delays,
)
from delayh2.delayopt import _grid_points, _Objective, _scan, _top, write_landscape
from delayh2.h2 import _cross_eval, _delayed_terms, _term_sums, gap_from_cross

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def cross_at(g, h, tau, gam):
    """The search objective: <H delayed by (tau, gamma), G>."""
    return inner_product_delayed(
        DelayedModel(h, DelayBlock(tau), DelayBlock(gam)), g)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts the search's objective evaluations (values and derivatives)."""
    count = [0]
    for name in ("value", "value_grad_hess"):
        def counted(self, x, _orig=getattr(_Objective, name)):
            count[0] += 1
            return _orig(self, x)
        monkeypatch.setattr(_Objective, name, counted)
    return count


@pytest.fixture
def start_evaluations(monkeypatch, evaluations):
    """The objective evaluations of each refinement start, in call order."""
    per_start = []

    def counted(obj, x0, *args, _orig=delayopt._refine):
        before = evaluations[0]
        out = _orig(obj, x0, *args)
        per_start.append(evaluations[0] - before)
        return out
    monkeypatch.setattr(delayopt, "_refine", counted)
    return per_start


def test_self_pair_optimum_is_zero_delay():
    rng = np.random.default_rng(81)
    for _ in range(3):
        g = random_pr(rng, int(rng.integers(2, 6)), ny=2, nu=2)
        found = optimize_delays(g, g, DelaySearchConfig(
            grid_points_per_channel=60, tau_max=4.0))
        din, dout = found.input_delays, found.output_delays
        x = np.concatenate([din.as_array(), dout.as_array()])
        assert np.max(x) < 1e-7
        val = cross_at(g, g, din.as_array(), dout.as_array())
        assert val == pytest.approx(h2_norm_sq(g), rel=1e-10)


def test_monotone_closed_form_pair():
    # cross(tau) = e^{-tau}/3 for G = 1/(s+1), H = 1/(s+2): argmax at 0
    g = make_siso([-1.0], [1.0])
    h = make_siso([-2.0], [1.0])
    found = optimize_delays(g, h, DelaySearchConfig(
        tau_max=5.0, output_mask=(False,)))
    din, dout = found.input_delays, found.output_delays
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
    found = optimize_delays(bench20, ref_core, DelaySearchConfig(
        input_mask=(True,), output_mask=(False,)))
    din, dout = found.input_delays, found.output_delays
    tau = din.delays[0]
    assert dout.delays == (0.0,)
    assert tau > 5.0
    assert tau == pytest.approx(8.69862, abs=1e-3)
    assert tau == pytest.approx(REF_TAU, abs=2.5e-2)
    got = cross_at(bench20, ref_core, din.as_array(), dout.as_array())
    at_ref = cross_at(bench20, ref_core, np.array([REF_TAU]),
                             np.array([0.0]))
    assert got >= at_ref


@pytest.mark.parametrize("tau_max, box", [(5.0, 10.0), (3.0, 12.0)])
def test_result_reports_the_box(bench20, ref_core, tau_max, box):
    # the optimum tau ~ 8.6986 presses on the right boundary until the box
    # has doubled past it; the result reports the box the search ended in
    found = optimize_delays(bench20, ref_core, DelaySearchConfig(
        input_mask=(True,), output_mask=(False,), tau_max=tau_max))
    assert found.tau_max == box
    assert found.input_delays.delays[0] == pytest.approx(8.69862, abs=1e-3)
    assert len(found.scans) == 1


def test_returned_point_dominates_grid():
    rng = np.random.default_rng(83)
    for _ in range(5):
        g = random_pr(rng, int(rng.integers(3, 7)))
        h = random_pr(rng, 2)
        cfg = DelaySearchConfig(grid_points_per_channel=41, tau_max=3.0)
        found = optimize_delays(g, h, cfg)
        din, dout = found.input_delays, found.output_delays
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
        cfg = DelaySearchConfig(grid_points_per_channel=80, tau_max=6.0)
        found = optimize_delays(g, h, cfg)
        din, dout = found.input_delays, found.output_delays
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
                            input_mask=(True, False), output_mask=(False, True))
    found = optimize_delays(g, h, cfg)
    din, dout = found.input_delays, found.output_delays
    assert din.delays[1] == 0.0
    assert dout.delays[0] == 0.0
    assert din.mask == (True, False)
    assert dout.mask == (False, True)


def test_all_masked_returns_zeros():
    rng = np.random.default_rng(86)
    g = random_pr(rng, 4, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    found = optimize_delays(g, h, DelaySearchConfig(
        tau_max=2.0, input_mask=(False, False), output_mask=(False, False)))
    assert found.input_delays.delays == (0.0, 0.0)
    assert found.output_delays.delays == (0.0, 0.0)
    assert found.tau_max == 2.0 and found.scans == ()


def test_matches_independent_dense_scan():
    # oscillatory SISO objective: compare the winner against a dense scan
    # evaluated with the plain-loop oracle
    rng = np.random.default_rng(87)
    for _ in range(3):
        g = random_pr(rng, 4)
        h = random_pr(rng, 2)
        cfg = DelaySearchConfig(tau_max=8.0, output_mask=(False,))
        found = optimize_delays(g, h, cfg)
        din = found.input_delays
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
    cfg = DelaySearchConfig(grid_points_per_channel=15, tau_max=2.0)
    write_landscape(str(path), optimize_delays(g, h, cfg))
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_1,gamma_1,objective"
    assert len(lines) == 1 + (2 * 15 - 1)
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert rows.shape == (2 * 15 - 1, 3)
    assert np.all(rows[:, 1] == 0.0)
    assert rows[-1, 0] == pytest.approx(4.0, rel=1e-12)


def test_landscape_csv_keeps_its_bytes(tmp_path):
    # a 2x2 search over both inputs on a 12 x 12 joint grid: the CSV is
    # built from the grid's axes and must keep its bytes (sha256 recorded
    # only after a diff of the CSV showed nothing but last-digit changes of
    # the objective column)
    rng = np.random.default_rng(93)
    g = random_pr(rng, 5, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    path = tmp_path / "landscape.csv"
    write_landscape(str(path), optimize_delays(g, h, DelaySearchConfig(
        grid_points_per_channel=12, tau_max=2.0,
        input_mask=(True, True), output_mask=(False, False))))
    data = path.read_bytes()
    assert data.count(b"\n") == 1 + 12 * 12
    assert hashlib.sha256(data).hexdigest() == \
        "718fac797f76c13702e6019f52d898a1aca4f296b405fb2bd93bde65b0ad6bc6"


def test_mimo_io_dominates_full_box_grid():
    # 2x2 with every channel delayed: the gauge faces cover every model of
    # the full box grid, and the result is the min gamma = 0 representative
    rng = np.random.default_rng(90)
    g = lag_cascade(rng, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    cfg = DelaySearchConfig(grid_points_per_channel=9, tau_max=3.0)
    found = optimize_delays(g, h, cfg)
    din, dout = found.input_delays, found.output_delays
    assert min(dout.delays) == 0.0
    got = cross_at(g, h, din.as_array(), dout.as_array())
    axis = np.linspace(0.0, 3.0, 9)
    for p in itertools.product(axis, repeat=4):
        sample = cross_at(g, h, np.array(p[:2]), np.array(p[2:]))
        assert got >= sample - 1e-11 * max(1.0, abs(sample))


def test_cyclic_scan_search_end_to_end(tmp_path, evaluations, start_evaluations):
    # 3x2 with every channel delayed: three gauge faces of four
    # coordinates each, so every face runs the cyclic scans (two sweeps
    # over 29 + 29 + 15 + 15 points) and refines from their rows. Two of
    # its starts reach iterates that hold a coordinate at 0 with an outward
    # gradient: steps on the free coordinates take 108 evaluations (34 at
    # most per start), where full Newton steps beside a damped branch took
    # 480 (310), to the same delays bit for bit
    g = lag_cascade(np.random.default_rng(90), 3, 2)
    h = irka_reduce(g, IrkaConfig(order=2)).model
    cfg = DelaySearchConfig(grid_points_per_channel=15, tau_max=2.0)
    evaluations[0] = 0
    found = optimize_delays(g, h, cfg)
    assert evaluations[0] <= 130
    assert max(start_evaluations) <= 40
    delays = found.input_delays.delays + found.output_delays.delays
    assert [d.hex() for d in delays] == ["0x1.522d4c88e8045p-8", "0x1.1ae486470ae8ap-8",
                                         "0x1.50a5fe8550575p-7", "0x1.ba3bfbb8a898ep-6",
                                         "0x0.0p+0"]
    again = optimize_delays(g, h, cfg)
    assert (found.input_delays, found.output_delays, found.tau_max) == \
        (again.input_delays, again.output_delays, again.tau_max)
    for (_, grid, values), (_, grid2, values2) in zip(found.scans, again.scans):
        assert np.array_equal(grid, grid2) and np.array_equal(values, values2)

    tau, gam = found.input_delays.as_array(), found.output_delays.as_array()
    assert min(gam) == 0.0
    # on a gauge face the inputs span [0, 2 tau_max], the outputs [0, tau_max]
    assert np.all((tau >= 0.0) & (tau <= 2.0 * found.tau_max))
    assert np.all((gam >= 0.0) & (gam <= found.tau_max))

    got = cross_at(g, h, tau, gam)
    assert len(found.scans) == 3
    for _, grid, values in found.scans:
        assert grid.shape == (176, 4)
        # the screen agrees with the kernel within a bound of 1e-12
        # relative (see test_scan_matches_exact_kernel), and faces tie at
        # 1e-14 relative
        best = float(np.max(values))
        assert got >= best - 1e-12 * max(1.0, abs(best))

    path = tmp_path / "landscape.csv"
    write_landscape(str(path), found)
    assert path.read_bytes().count(b"\n") == 1 + 3 * 176


@pytest.mark.parametrize("ny, nu, input_mask, output_mask, payload, face", [
    (1, 1, (True,), (True,), False, False),
    (2, 2, (True, True), (False, False), False, False),
    (2, 3, (True, False, True), (False, True), False, False),
    (2, 2, (True, True), (True, True), False, False),
    (1, 1, (True,), (True,), True, True),
    (2, 2, (True, True), (False, False), True, False),
    (2, 2, (True, True), (True, True), True, False),
], ids=["siso-io", "2x2-inputs", "2x3-mask-101-01", "2x2-io-cyclic",
        "payload-siso-io-face", "payload-2x2-inputs", "payload-2x2-io-cyclic"])
def test_scan_matches_exact_kernel(ny, nu, input_mask, output_mask, payload, face):
    # the screen against the exact kernel at every returned point, on the
    # joint grid (k <= 3), a gauge face and the cyclic scans (k = 4): the
    # lattice tables, float64 or double-double, within their stated
    # rounding bound, and that bound tight enough that CONFIRM_CAP peaks
    # seldom tie within it
    rng = np.random.default_rng(89)
    g = random_pr(rng, 5, ny=ny, nu=nu)
    h = random_pr(rng, 2, ny=ny, nu=nu)
    if payload:
        g = payload_model(g, 30)
    obj = _Objective(g, h, np.flatnonzero(input_mask), np.flatnonzero(output_mask))
    if face:
        obj = obj.gauge_face(0)
    k_act = obj.span.size
    grid, values, _, bound = _scan(obj, k_act, 3.0,
                                   DelaySearchConfig(grid_points_per_channel=20))
    points = _grid_points(grid)
    size = 20 ** k_act if k_act <= 3 else 2 * k_act * 20
    assert points.shape == (values.size, k_act)
    assert values.size == (2 * 20 - 1 if face else size)
    exact = np.array([obj.value(p) for p in points])
    assert np.all(np.abs(values - exact) <= bound)
    assert bound <= 1e-12 * np.max(np.abs(exact))


def test_payload_scan_ranks_the_benchmark_landscape(bench20):
    # a float screen of this 400-point scan is off by up to 0.052 on values
    # spanning 0.013-0.089 and has 51 local maxima; the lattice screen is
    # within its bound everywhere and has the exact objective's one peak
    obj = _Objective(bench20, RECORDED_REF_CORE, np.array([0]), np.array([], dtype=int))
    grid, values, peaks, bound = _scan(obj, 1, 10.0, DelaySearchConfig())
    exact = np.array([obj.value(p) for p in _grid_points(grid)])
    assert np.all(np.abs(values - exact) <= bound)
    assert bound <= 1e-12 * np.max(np.abs(exact))
    assert peaks.size == 1 and peaks[0] == np.argmax(exact)


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
    grid, values, _, _ = _scan(obj, 1, 3.0, DelaySearchConfig(
        grid_points_per_channel=10 ** 5, joint_grid_budget=500))
    assert 2 <= values.size == _grid_points(grid).shape[0] <= 500


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
    f, grad, hess, _ = obj.value_grad_hess(x)
    tau, gam = obj.full_vectors(x)
    core = _delayed_terms(obj.bk, obj.mu, obj.k, tau, gam)
    f_full, g_in, g_out, h_full = _term_sums(obj.bk, obj.mu, core, 2)
    idx = np.concatenate([obj.act_in, g.nu + obj.act_out])
    assert f == float(np.real(f_full))
    assert np.array_equal(grad, np.concatenate([g_in.real, g_out.real])[idx])
    assert np.array_equal(hess, h_full.real[np.ix_(idx, idx)])
    # exactly symmetric: the refinement solves with it unsymmetrised
    assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("seed", range(8))
def test_top_is_the_stable_argsort_prefix(seed):
    # many ties, mixed -0.0 and 0.0, k = 1, k inside and k >= size
    rng = np.random.default_rng(seed)
    for _ in range(250):
        n = int(rng.integers(1, 60))
        v = rng.integers(-3, 4, n).astype(float)
        v[rng.random(n) < 0.3] *= 0.0
        v[v == 0.0] *= rng.choice([-1.0, 1.0], int(np.sum(v == 0.0)))
        if rng.random() < 0.5:
            v = v + rng.integers(0, 2, n) * rng.standard_normal(n)
        # the ranking by (value descending, index ascending), from Python's sort
        want = sorted(range(n), key=lambda i: (-v[i], i))
        for k in {1, int(rng.integers(1, n + 1)), n, n + 3}:
            assert _top(v, k).tolist() == want[:k], (v, k)


@pytest.mark.parametrize("seed", [1, 2])
def test_float_refinement_meets_refine_tol(seed, monkeypatch, evaluations):
    # mimo-float's search: its cancelling float sum stalls the refinement
    # on rounding noise unless a Newton step within the rounding bound of
    # the objective is kept
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    g = workloads.mimo_float_model(seed)
    core = irka_reduce(g, IrkaConfig(order=4, seed=0)).model
    cfg = DelaySearchConfig(input_mask=(True, True), output_mask=(False, False))
    found = optimize_delays(g, core, cfg)
    din, dout = found.input_delays, found.output_delays
    tau = din.as_array()
    _, g_in, _, _ = _cross_eval(g, core, tau, dout.as_array(), 1)
    interior = tau > 0.0
    assert np.any(interior)
    assert np.max(np.abs(np.real(g_in)[interior])) <= delayopt.REFINE_TOL
    assert evaluations[0] <= 60


def test_indefinite_faces_take_damped_newton_steps(evaluations, start_evaluations):
    # a 2x2 io search whose face Hessians are indefinite at many iterates:
    # damped Newton steps on the free coordinates cross their flat
    # directions and reach the same delays and kernel sum, bit for bit, in
    # 125 evaluations, 63 at most per start. A projected-gradient ascent
    # took 7365 (1581 for one start); full Newton steps beside a
    # Levenberg-Marquardt branch whose damping never fell took 631 (201)
    g = lag_cascade(np.random.default_rng(90), 2, 2)
    h = irka_reduce(g, IrkaConfig(order=2)).model
    evaluations[0] = 0
    found = optimize_delays(g, h, DelaySearchConfig())
    assert evaluations[0] <= 150
    assert max(start_evaluations) <= 70
    delays = found.input_delays.delays + found.output_delays.delays
    assert [d.hex() for d in delays] == ["0x1.28c40ac67d3b2p-3", "0x1.b8b615cdfa849p-9",
                                         "0x1.77e8f751d5805p-1", "0x0.0p+0"]
    assert found.cross.real.hex() == "0x1.21cbd09444284p+2"


def test_singular_free_hessian_takes_a_damped_step():
    # a 3x3 io search reaches an iterate whose free Hessian block (five
    # coordinates, eigenvalues up to 9.2e9 in size) is singular in floating
    # point: its largest eigenvalue is +-2.2e-7, within eigvalsh's rounding
    # level, so it certifies no maximum and takes a damped step, where a
    # Newton step's solve would raise LinAlgError
    g = lag_cascade(np.random.default_rng(0), 3, 3)
    h = irka_reduce(g, IrkaConfig(order=2)).model
    found = optimize_delays(g, h, DelaySearchConfig())
    got = cross_at(g, h, found.input_delays.as_array(), found.output_delays.as_array())
    assert got == pytest.approx(1087.481638571106, rel=1e-12)


def _from_hex(pairs):
    return np.array([complex(float.fromhex(re), float.fromhex(im))
                     for re, im in pairs])


# the ref_core fixture's IRKA core as it was when the delay and evaluation
# count below were recorded, bit for bit, so that the pin depends on the
# search alone and not on how IRKA reaches its fixed point
RECORDED_REF_CORE = PoleResidueModel(
    _from_hex([("-0x1.a0282a9e7f907p-3", "0x1.a7f01501d5100p-3"),
               ("-0x1.a0282a9e7f907p-3", "-0x1.a7f01501d5100p-3")]),
    _from_hex([("0x1.bab45863f783dp-2", "0x1.e4559086ad29ep-56"),
               ("0x1.bab45863f783dp-2", "-0x1.e4559086ad29ep-56")])[:, None],
    _from_hex([("0x1.dce2d4d296ef7p-9", "-0x1.bab054f568f8fp-2"),
               ("0x1.dce2d4d296ef7p-9", "0x1.bab054f568f8fp-2")])[:, None])


def test_payload_search_is_unchanged(bench20, evaluations):
    # on a payload the rounding bound is 0: the search takes the same
    # steps and returns the same delay, bit for bit, as the comparison
    # fn >= f did (recorded from that code). Refining the one peak of each
    # scan takes 8 evaluations; 116 when the 25 best float-screened cells
    # were confirmed and 7 starts refined per scan
    found = optimize_delays(bench20, RECORDED_REF_CORE, DelaySearchConfig(
        input_mask=(True,), output_mask=(False,)))
    din = found.input_delays
    assert din.delays[0].hex() == "0x1.165b17cc574dfp+3"
    assert evaluations[0] == 8


@pytest.mark.parametrize("case", ["payload-input", "payload-io", "mimo-float",
                                  "all-masked"])
def test_result_cross_is_the_gap_kernel_sum(bench20, monkeypatch, case):
    # the search's own kernel sum at the returned delays gives the gap
    # bit for bit as compute_gap forms it from scratch
    if case.startswith("payload"):
        g, h = bench20, RECORDED_REF_CORE
        cfg = DelaySearchConfig(input_mask=(True,), output_mask=(False,)) \
            if case == "payload-input" else DelaySearchConfig()
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        g = workloads.mimo_float_model(0)
        h = irka_reduce(g, IrkaConfig(order=4, seed=0)).model
        cfg = workloads.MimoFloat.cfg.search if case == "mimo-float" \
            else DelaySearchConfig(input_mask=(False,) * 2, output_mask=(False,) * 2)
    found = optimize_delays(g, h, cfg)
    hd = DelayedModel(h, found.input_delays, found.output_delays)
    norm_g_sq = h2_norm_sq(g)
    assert gap_from_cross(norm_g_sq, found.cross, h) == compute_gap(g, hd, norm_g_sq)
    # without the memoized terms the sum is formed afresh, to the same bits
    obj = _Objective(g, h, np.flatnonzero(hd.input_delays.mask),
                     np.flatnonzero(hd.output_delays.mask))
    assert obj.kernel_sum(hd.input_delays.as_array(),
                          hd.output_delays.as_array()) == found.cross


@pytest.fixture
def refined(monkeypatch):
    """Records (start, x, f) of every refinement start."""
    calls = []

    def spy(obj, x0, *args, _orig=delayopt._refine, **kwargs):
        x, f = _orig(obj, x0, *args, **kwargs)
        calls.append((np.array(x0), x, f))
        return x, f
    monkeypatch.setattr(delayopt, "_refine", spy)
    return calls


def _cascade(rates, gain):
    """(poles, residues) of gain * prod_k a_k / (s + a_k), distinct rates."""
    a = np.asarray(rates)
    return list(-a), [gain * np.prod(a) / np.prod(np.delete(a, k) - a[k])
                      for k in range(a.size)]


def test_each_peak_is_refined(refined):
    # a fast and a slow 5-lag cascade against a first-order lag: the delay
    # landscape has a maximum near 0.9 and a higher one near 11.6. Ranked
    # grid cells would all sit on the higher peak; one start per peak
    # refines both, and the search returns the higher maximum
    fast = _cascade([3.0, 3.3, 3.6, 3.9, 4.2], 1.0)
    slow = _cascade([0.3, 0.32, 0.34, 0.36, 0.38], 12.0)
    g = make_siso(fast[0] + slow[0], fast[1] + slow[1])
    h = make_siso([-4.0], [4.0])
    found = optimize_delays(g, h, DelaySearchConfig(
        tau_max=20.0, output_mask=(False,)))
    assert len(refined) == 2
    low, high = sorted(refined, key=lambda r: r[0][0])
    assert low[0][0] < 2.0 and 10.0 < high[0][0] < 13.0
    assert high[2] > low[2]
    assert found.input_delays.delays[0] == high[1][0]


def test_benchmark_search_refines_one_start_per_scan(bench20, refined):
    # the landscape has one peak, and the box doubles once (5 -> 10)
    found = optimize_delays(bench20, RECORDED_REF_CORE, DelaySearchConfig(
        input_mask=(True,), output_mask=(False,)))
    assert found.tau_max == 10.0
    assert len(refined) <= 2


def test_config_validation():
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(grid_points_per_channel=1)
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(tau_max=0.0)
    with pytest.raises(DelayH2Error):
        DelaySearchConfig(tau_max=np.inf)
    # tau_max is a real number, not a bool or a string; numpy reals pass
    for value in (True, np.True_, "3"):
        with pytest.raises(DelayH2Error, match=f"^tau_max {value!r} is not a real number"):
            DelaySearchConfig(tau_max=value)
    assert DelaySearchConfig(tau_max=np.float64(2.0)).tau_max == 2.0
    # mask entries are booleans, Python's or numpy's
    rng = np.random.default_rng(86)
    g = random_pr(rng, 4, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    for mask in (("x", "y"), (1, 0), (True, None)):
        with pytest.raises(DelayH2Error, match=r"^input_mask .* is not a boolean"):
            optimize_delays(g, h, DelaySearchConfig(tau_max=2.0, input_mask=mask))
    got = optimize_delays(g, h, DelaySearchConfig(
        tau_max=2.0, grid_points_per_channel=20, input_mask=np.array([True, False])))
    assert got.input_delays.mask == (True, False)


@pytest.mark.parametrize("field, value", [
    ("joint_grid_budget", -5), ("joint_grid_budget", 0),
    ("grid_points_per_channel", 2.5), ("grid_points_per_channel", True)])
def test_grid_sizes_are_named_integers(field, value):
    # rejected on construction, naming the field, not as a NaN or a float
    # count deep inside the grid scan
    with pytest.raises(DelayH2Error, match=field):
        DelaySearchConfig(**{field: value})


@pytest.mark.parametrize("masks, field", [
    (dict(input_mask=(True, True, True)), "input_mask has 3 entries for a model with 2 inputs"),
    (dict(output_mask=(True,)), "output_mask has 1 entries for a model with 2 outputs")],
    ids=["input-mask-too-long", "output-mask-too-short"])
def test_mask_length_is_checked_per_field(masks, field):
    rng = np.random.default_rng(86)
    g = random_pr(rng, 4, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    with pytest.raises(DimensionMismatch, match=field):
        optimize_delays(g, h, DelaySearchConfig(tau_max=2.0, **masks))
