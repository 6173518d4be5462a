"""End-to-end acceptance checks: published benchmark targets + invariants.

One test per externally checkable claim. The reproduction tests compare
against published reference values for the order-20 cascade benchmark; the
property tests check mathematical invariants on random instances against
independent oracles. The published operating point (delay 8.7179) is the
IRKA core at that delay, an iterate that the alternating loop leaves for
the stationary point at 8.6241; the published values are asserted at their
stated tolerances against that core. See README "Acceptance suite and
known deviations".
"""

import time

import numpy as np
import pytest

import oracles
from conftest import (
    REF_DELAY_DEFECT,
    REF_DERIV_PRINTED,
    REF_INTERP,
    REF_POLE,
    REF_RESIDUE,
    REF_TAU,
    STAT_POLE,
    STAT_RESIDUE,
    STAT_TAU,
    make_siso,
    random_delayed,
    random_pr,
)
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelaySearchConfig,
    IoDirkaConfig,
    IrkaConfig,
    PoleResidueModel,
    build_gtilde,
    compute_gap,
    eval_transfer,
    eval_transfer_derivative,
    gap_gradient,
    h2_norm_pole_residue,
    h2_norm_sq,
    impulse_response,
    inner_product_delayed,
    io_dirka,
    irka_reduce,
    optimality_residuals,
)
from delayh2.cli import main
from delayh2.serialize import save_model

BENCH_MU = np.linspace(-2.0, -1.0, 20)


# ---------------------------------------------------------------------------
# benchmark study: delayed orders 2 and 4, delay-free orders 3, 4 and 6


def _study_config(n, **kw):
    return IoDirkaConfig(
        order=n, outer_max_iters=80, irka=IrkaConfig(order=n, seed=0),
        search=DelaySearchConfig(input_mask=(True,), output_mask=(False,)),
        **kw)


@pytest.fixture(scope="module")
def study(bench20):
    norm_g_sq = h2_norm_sq(bench20)
    t = np.linspace(0.0, 50.0, 2000)
    gi = impulse_response(bench20, t)[0, 0, :]
    out = {"delayed": {}, "free": {}, "runtime": {}}
    for n in (2, 4):
        t0 = time.perf_counter()
        rep = io_dirka(bench20, _study_config(n))
        out["runtime"][n] = time.perf_counter() - t0
        hi = impulse_response(rep.model, t)[0, 0, :]
        out["delayed"][n] = {"report": rep, "gap": rep.gap.j,
                             "mse": float(np.mean((gi - hi) ** 2))}
    for n in (3, 4, 6):
        res = irka_reduce(bench20, IrkaConfig(order=n, seed=0))
        hd = DelayedModel.undelayed(res.model)
        hi = impulse_response(hd, t)[0, 0, :]
        out["free"][n] = {"model": hd,
                          "gap": compute_gap(bench20, hd, norm_g_sq).j,
                          "mse": float(np.mean((gi - hi) ** 2))}
    return out


@pytest.fixture(scope="module")
def ref_restart(bench20):
    """The study's order-2 reduction, started at the published delay."""
    return io_dirka(bench20, _study_config(2, init_input_delays=(REF_TAU,)))


def _plus_pole_term(model):
    k = int(np.argmax(model.poles.imag))
    return model.poles[k], model.left[k, 0] * model.right[k, 0]


def _quad_gap(hd):
    """Squared gap to the benchmark by product-form quadrature."""
    core = hd.core
    return oracles.cascade_gap_sq(
        BENCH_MU, core.poles, core.left, core.right,
        hd.input_delays.delays[0] + hd.output_delays.delays[0])


def test_benchmark_reduction_runs_quickly(study):
    rep = study["delayed"][2]["report"]
    assert rep.converged
    assert study["runtime"][2] < 30.0


def test_benchmark_published_delay(bench20, study, ref_core, ref_restart):
    """The published delay 8.7179 is not stationary: its delay defect is
    9.7e-5 (test_reference_delay_condition). Restarted there, the loop
    moves toward the optimum at once and converges to the zero-start
    optimum 8.6241, whose gap is lower by 9.06e-6 (quadrature error about
    3e-10), by compute_gap and by the independent quadrature alike.
    """
    rep = ref_restart
    assert STAT_TAU < rep.trace[0].model.input_delays.delays[0] < REF_TAU
    assert rep.converged
    assert rep.residuals.max_residual() < 1e-8
    tau = rep.model.input_delays.delays[0]
    tau0 = study["delayed"][2]["report"].model.input_delays.delays[0]
    assert tau == pytest.approx(tau0, abs=1e-5)

    published = DelayedModel(ref_core, DelayBlock((REF_TAU,), (True,)),
                             DelayBlock.zeros(1))
    assert rep.gap.j < compute_gap(bench20, published, rep.norm_g_sq).j
    assert _quad_gap(rep.model) < _quad_gap(published)


def test_benchmark_published_poles(study, ref_restart):
    """Published point: poles -2.0320e-1 +- i 2.0700e-1, each component to
    1e-3, checked on the IRKA core at the published delay (the first
    iterate of the restarted run). The run ends at the zero-start optimum.
    """
    pole, _ = _plus_pole_term(ref_restart.trace[0].model.core)
    assert pole.real == pytest.approx(REF_POLE.real, abs=1e-3)
    assert pole.imag == pytest.approx(REF_POLE.imag, abs=1e-3)
    final, _ = _plus_pole_term(ref_restart.model.core)
    pole0, _ = _plus_pole_term(study["delayed"][2]["report"].model.core)
    assert abs(final - pole0) < 1e-5


def test_benchmark_published_residues(study, ref_restart):
    """Published point: residues 1.5713e-3 -+ i 1.8691e-1, each component
    to 1e-3, checked on the IRKA core at the published delay (the first
    iterate of the restarted run). The run ends at the zero-start optimum.
    """
    _, phi = _plus_pole_term(ref_restart.trace[0].model.core)
    assert phi.real == pytest.approx(REF_RESIDUE.real, abs=1e-3)
    assert phi.imag == pytest.approx(REF_RESIDUE.imag, abs=1e-3)
    _, final = _plus_pole_term(ref_restart.model.core)
    _, phi0 = _plus_pole_term(study["delayed"][2]["report"].model.core)
    assert abs(final - phi0) < 1e-5


def test_benchmark_reaches_stationary_point(study):
    # the computed optimum is a genuine fixed point: frozen coordinates
    # and near-zero first-order defects
    rep = study["delayed"][2]["report"]
    tau = rep.model.input_delays.delays[0]
    pole, phi = _plus_pole_term(rep.model.core)
    assert tau == pytest.approx(STAT_TAU, abs=1e-5)
    assert abs(pole - STAT_POLE) < 1e-5
    assert abs(phi - STAT_RESIDUE) < 1e-5
    assert rep.residuals.max_residual() < 1e-8
    assert rep.model.output_delays.delays == (0.0,)


# ---------------------------------------------------------------------------
# first-order condition values at the published delay


@pytest.fixture(scope="module")
def ref_setup(bench20, ref_core):
    gt = build_gtilde(bench20, DelayBlock((REF_TAU,), (True,)),
                      DelayBlock.zeros(1))
    sig_minus = -ref_core.poles[int(np.argmin(ref_core.poles.imag))]
    sig_plus = -ref_core.poles[int(np.argmax(ref_core.poles.imag))]
    return gt, ref_core, sig_minus, sig_plus


def test_reference_interpolation_values(ref_setup):
    gt, core, sig_minus, sig_plus = ref_setup
    for sig in (sig_minus, sig_plus):
        hv = eval_transfer(core, sig)[0, 0]
        gv = eval_transfer(gt, sig)[0, 0]
        assert abs(hv - gv) < 1e-8
    hv = eval_transfer(core, sig_minus)[0, 0]
    assert hv.real == pytest.approx(REF_INTERP.real, abs=1e-3)
    assert hv.imag == pytest.approx(REF_INTERP.imag, abs=1e-3)


def test_reference_hermite_values(ref_setup):
    gt, core, sig_minus, sig_plus = ref_setup
    for sig in (sig_minus, sig_plus):
        hd = eval_transfer_derivative(core, sig)[0, 0]
        gd = eval_transfer_derivative(gt, sig)[0, 0]
        assert abs(hd - gd) < 1e-6
    # the published derivative pair is reported sign-flipped relative to
    # d/ds at the mirror point; the magnitude pairing fixes the convention
    hd = eval_transfer_derivative(core, sig_plus)[0, 0]
    assert hd.real == pytest.approx(-REF_DERIV_PRINTED.real, abs=1e-3)
    assert hd.imag == pytest.approx(-REF_DERIV_PRINTED.imag, abs=1e-3)


def test_reference_delay_condition(bench20, ref_core):
    hd = DelayedModel(ref_core, DelayBlock((REF_TAU,), (True,)),
                      DelayBlock.zeros(1))
    res = optimality_residuals(bench20, hd)
    assert res.delay_in[0] <= 1e-3
    assert res.delay_in[0] == pytest.approx(REF_DELAY_DEFECT, abs=2e-6)


def test_reference_core_parameters(ref_core):
    pole, phi = _plus_pole_term(ref_core)
    assert pole.real == pytest.approx(REF_POLE.real, abs=1e-3)
    assert pole.imag == pytest.approx(REF_POLE.imag, abs=1e-3)
    assert phi.real == pytest.approx(REF_RESIDUE.real, abs=1e-3)
    assert phi.imag == pytest.approx(REF_RESIDUE.imag, abs=1e-3)


# ---------------------------------------------------------------------------
# ordering claims on the benchmark


def test_delayed_order4_impulse_beats_free_order6(study):
    assert study["delayed"][4]["report"].converged
    assert study["delayed"][4]["mse"] < study["free"][6]["mse"]


def test_delayed_order2_gap_beats_free_order4(study):
    """Half-order claim, delayed order 2 against delay-free order 4, on the
    squared H2 gap. On this benchmark the certified optima refute it: the
    delayed order-2 optimum (1.6048e-3, the global minimum over delays in
    [0, 16]) lies between the delay-free optima of order 4 (1.5287e-3,
    unique across 12 restarts) and order 3 (8.0050e-3). At orders 4 vs 6
    the claim holds (9.23e-6 vs 1.89e-5). The ordering is asserted on
    compute_gap and on the independent product-form quadrature, so it
    fails if either reduction regresses.
    """
    d2 = study["delayed"][2]
    f3, f4 = study["free"][3], study["free"][4]
    assert f4["gap"] < d2["gap"] < f3["gap"]
    q_d2 = _quad_gap(d2["report"].model)
    q_f3, q_f4 = _quad_gap(f3["model"]), _quad_gap(f4["model"])
    assert q_f4 < q_d2 < q_f3
    for q, j in ((q_d2, d2["gap"]), (q_f3, f3["gap"]), (q_f4, f4["gap"])):
        assert abs(q - j) <= 1e-4 * j


# ---------------------------------------------------------------------------
# property suite on random instances


def test_norm_invariance_random_models():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        order = int(rng.integers(2, 9))
        ny = int(rng.integers(1, 3))
        nu = int(rng.integers(1, 3))
        core = random_pr(rng, order, ny=ny, nu=nu)
        hd = random_delayed(rng, core)
        pr = h2_norm_pole_residue(core)
        assert h2_norm_pole_residue(hd) == pytest.approx(pr, rel=1e-12)
        # Gauss-Legendre in omega = tan(theta): 6e-13 worst on this seed
        q_del = oracles.h2_norm_gauss(hd)
        q_un = oracles.h2_norm_gauss(core)
        assert abs(q_del - q_un) <= 1e-10 * pr
        assert abs(q_del - pr) <= 1e-10 * pr
        assert abs(q_un - pr) <= 1e-10 * pr


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4096)
    for _ in range(100):
        ny = int(rng.integers(1, 3))
        nu = int(rng.integers(1, 3))
        g = random_pr(rng, int(rng.integers(3, 8)), ny=ny, nu=nu)
        h = random_pr(rng, int(rng.integers(1, 4)), ny=ny, nu=nu)
        tau = rng.uniform(0.1, 1.2, nu)
        gam = rng.uniform(0.1, 1.2, ny)
        din, dout = DelayBlock(tuple(tau)), DelayBlock(tuple(gam))
        gns = h2_norm_sq(g)

        def gap_at(tt, gg):
            return compute_gap(g, DelayedModel(h, DelayBlock(tuple(tt)),
                                               DelayBlock(tuple(gg))), gns).j

        dc, db, dl, an_in, an_out = gap_gradient(g, DelayedModel(h, din, dout))
        fd_in, fd_out = oracles.fd_delay_grad(gap_at, tau, gam)
        scale = max(1.0, np.max(np.abs(fd_in)), np.max(np.abs(fd_out)))
        assert np.max(np.abs(an_in - fd_in)) < 1e-5 * scale
        assert np.max(np.abs(an_out - fd_out)) < 1e-5 * scale

        def gap_L(L):
            return compute_gap(g, DelayedModel(
                PoleResidueModel(h.poles, L, h.right), din, dout), gns).j

        def gap_R(R):
            return compute_gap(g, DelayedModel(
                PoleResidueModel(h.poles, h.left, R), din, dout), gns).j

        def gap_P(P):
            return compute_gap(g, DelayedModel(
                PoleResidueModel(P, h.left, h.right), din, dout), gns).j

        fd_dc = oracles.fd_complex_grad(gap_L, h.left, h.poles)
        fd_db = oracles.fd_complex_grad(gap_R, h.right, h.poles)
        fd_dl = oracles.fd_complex_grad(gap_P, h.poles, h.poles)
        scale = max(1.0, np.max(np.abs(fd_dc)), np.max(np.abs(fd_db)),
                    np.max(np.abs(fd_dl)))
        assert np.max(np.abs(dc - fd_dc)) < 1e-5 * scale
        assert np.max(np.abs(db - fd_db)) < 1e-5 * scale
        assert np.max(np.abs(dl - fd_dl)) < 1e-5 * scale


def test_inner_product_matches_quadrature_oracle():
    rng = np.random.default_rng(77)
    kept = 0
    while kept < 50:
        g = random_pr(rng, int(rng.integers(2, 7)))
        h = random_delayed(rng, random_pr(rng, int(rng.integers(2, 5))))
        val = inner_product_delayed(h, g)
        # a relative check needs the product away from an accidental zero
        if abs(val) < 0.25:
            continue
        kept += 1
        # Gauss-Legendre panels in time: 1.2e-15 worst on this seed
        ref = oracles.cross_time_gauss(g, h)
        assert abs(val - ref) <= 1e-10 * abs(ref)


def test_impulse_advance_property():
    rng = np.random.default_rng(909)
    t = np.linspace(0.0, 6.0, 1201)
    for _ in range(10):
        g = random_pr(rng, int(rng.integers(2, 7)))
        tau = float(rng.uniform(0.0, 1.5))
        gam = float(rng.uniform(0.0, 1.5))
        gt = build_gtilde(g, DelayBlock((tau,)), DelayBlock((gam,)))
        adv = impulse_response(gt, t)[0, 0, :]
        ref = oracles.pr_impulse(g.poles, g.left, g.right,
                                 t + tau + gam)[0, 0, :]
        assert np.max(np.abs(adv - ref)) < 1e-10


def test_reduction_matches_exhaustive_search():
    rng = np.random.default_rng(515)
    models = [make_siso([-1.0, -2.0, -3.0], [0.5, -1.0, 0.5]),
              random_pr(rng, 3)]
    for g in models:
        gns = h2_norm_sq(g)
        res = irka_reduce(g, IrkaConfig(order=2))
        assert res.converged
        gap = compute_gap(g, DelayedModel.undelayed(res.model), gns).j
        best = oracles.brute_force_reduce_n2(g.poles, g.left, g.right, gns)
        assert abs(gap - best) < 1e-6
        assert gap <= best + 1e-9


def test_exact_recovery_keeps_zero_delays():
    rng = np.random.default_rng(606)
    search = DelaySearchConfig(grid_points_per_channel=120, tau_max=4.0,
                               extend_box=False)
    for order, ny, nu in ((3, 1, 1), (4, 2, 2)):
        g = random_pr(rng, order, ny=ny, nu=nu)
        rep = io_dirka(g, IoDirkaConfig(order=order, search=search))
        assert rep.converged
        assert rep.gap.j < 1e-9
        assert np.max(np.abs(rep.model.input_delays.as_array())) < 1e-9
        assert np.max(np.abs(rep.model.output_delays.as_array())) < 1e-9


# ---------------------------------------------------------------------------
# determinism


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    rng = np.random.default_rng(313)
    g = random_pr(rng, 5)
    mpath = tmp_path / "model.json"
    save_model(mpath, g)
    for sub in ("a", "b"):
        rc = main(["reduce", "--model", str(mpath), "--order", "2",
                   "--delays", "io", "--out", str(tmp_path / sub),
                   "--grid-points", "80", "--tau-max", "4.0",
                   "--outer-max", "12", "--seed", "7"])
        assert rc in (0, 2)
    capsys.readouterr()
    for name in ("report.json", "reduced-model.json", "run-config.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
