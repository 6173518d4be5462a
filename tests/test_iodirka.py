"""Alternating reduction loop: core IRKA pass + delay step, certified."""

import dataclasses

import numpy as np
import pytest

from conftest import lag_cascade, random_pr
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DelaySearchConfig,
    IoDirkaConfig,
    IrkaConfig,
    compute_gap,
    h2_norm_sq,
    io_dirka,
    irka_reduce,
    optimality_residuals,
)
from delayh2.serialize import dumps_canonical, report_to_obj

SMALL_SEARCH = DelaySearchConfig(grid_points_per_channel=60, tau_max=4.0,
                                 extend_box=False)


def small_report(seed=91, order_full=6, order_red=2, **kw):
    rng = np.random.default_rng(seed)
    g = random_pr(rng, order_full)
    cfg = IoDirkaConfig(order=order_red, search=SMALL_SEARCH,
                        outer_max_iters=60, **kw)
    return g, io_dirka(g, cfg)


def test_exact_recovery_keeps_zero_delays():
    rng = np.random.default_rng(92)
    g = random_pr(rng, 4)
    rep = io_dirka(g, IoDirkaConfig(order=4, search=SMALL_SEARCH))
    assert rep.converged
    assert rep.gap.j < 1e-9
    assert rep.model.input_delays.delays == (0.0,)
    assert rep.model.output_delays.delays == (0.0,)


def test_delay_free_masks_reduce_to_plain_irka():
    rng = np.random.default_rng(93)
    g = random_pr(rng, 6)
    search = dataclasses.replace(SMALL_SEARCH, input_mask=(False,),
                                 output_mask=(False,))
    rep = io_dirka(g, IoDirkaConfig(order=2, search=search))
    assert rep.converged
    assert rep.model.input_delays.delays == (0.0,)
    assert rep.residuals.delay_in == (0.0,)
    assert rep.residuals.delay_out == (0.0,)
    direct = irka_reduce(g, IrkaConfig(order=2))
    assert np.allclose(rep.model.core.poles, direct.model.poles,
                       rtol=1e-8, atol=1e-10)
    r = optimality_residuals(g, rep.model.core)
    assert r.max_residual() < 1e-6 * max(1.0, h2_norm_sq(g))


def test_perturbed_delay_grows_residual():
    g, rep = small_report(96)
    assert rep.converged
    hd = rep.model
    moved = DelayBlock((hd.input_delays.delays[0] + 0.1,), (True,))
    r0 = max(rep.residuals.delay_in + rep.residuals.delay_out)
    r1 = optimality_residuals(g, DelayedModel(hd.core, moved, hd.output_delays))
    r1 = max(r1.delay_in + r1.delay_out)
    assert r1 > 10.0 * max(r0, 1e-12)


def test_trace_gap_recomputable_bit_identical():
    g, rep = small_report(97)
    gns = rep.norm_g_sq
    for entry in rep.trace:
        gap = compute_gap(g, entry.model, gns)
        assert gap.j == entry.gap.j
        assert gap.cross == entry.gap.cross
        assert gap.norm_h_sq == entry.gap.norm_h_sq


def test_trace_alternating_consistency():
    g, rep = small_report(98)
    from delayh2 import build_gtilde
    for entry in rep.trace:
        hd = entry.model
        gt = build_gtilde(g, hd.input_delays, hd.output_delays)
        r = optimality_residuals(gt, hd.core)
        if entry.irka_converged:
            assert r.max_residual() < 1e-5 * max(1.0, h2_norm_sq(g))


@pytest.mark.parametrize("seed", [99, 101])
def test_converged_means_certificate(seed):
    # the certificate is the fixed point of the plain alternation, so an
    # Aitken jump may change the path but not where a converged run ends
    g, rep = small_report(seed)
    assert rep.converged
    bound = 1e-6 * max(1.0, h2_norm_sq(g))
    assert optimality_residuals(g, rep.model).max_residual() <= bound


def test_corpus_n200_reports_unconverged(corpus):
    # neither IRKA call settles in 200 iterations and the max residual is
    # about 36; the poles and delays stop moving all the same
    g = corpus[200]
    cfg = IoDirkaConfig(order=6)
    rep = io_dirka(g, cfg)
    assert rep.outer_iterations < cfg.outer_max_iters
    assert rep.converged is False
    assert rep.residuals.max_residual() > 1e-6 * max(1.0, h2_norm_sq(g))


def test_outer_max_returns_best_effort():
    rng = np.random.default_rng(100)
    g = random_pr(rng, 6)
    rep = io_dirka(g, IoDirkaConfig(order=2, search=SMALL_SEARCH,
                                    outer_max_iters=1))
    assert not rep.converged
    assert rep.outer_iterations == 1
    assert len(rep.trace) == 1
    assert rep.gap.j >= 0.0


def test_explicit_init_delays_respected():
    # the first core is reduced from the surrogate at the initial delays,
    # so a nonzero init must change the first-iteration poles
    rng = np.random.default_rng(102)
    g = random_pr(rng, 6)
    base = dict(order=2, search=SMALL_SEARCH, outer_max_iters=1)
    rep0 = io_dirka(g, IoDirkaConfig(**base))
    rep1 = io_dirka(g, IoDirkaConfig(init_input_delays=(1.5,),
                                     init_output_delays=(0.5,), **base))
    p0 = rep0.trace[0].model.core.poles
    p1 = rep1.trace[0].model.core.poles
    assert np.max(np.abs(p0 - p1)) > 1e-6


def test_mimo_structured_masks():
    rng = np.random.default_rng(104)
    g = random_pr(rng, 6, ny=2, nu=2)
    search = dataclasses.replace(SMALL_SEARCH, grid_points_per_channel=25,
                                 input_mask=(True, False),
                                 output_mask=(False, False))
    rep = io_dirka(g, IoDirkaConfig(order=2, search=search,
                                    outer_max_iters=40))
    hd = rep.model
    assert hd.input_delays.delays[1] == 0.0
    assert hd.output_delays.delays == (0.0, 0.0)
    assert hd.input_delays.mask == (True, False)
    assert rep.residuals.delay_in[1] == 0.0
    for entry in rep.trace:
        assert entry.model.input_delays.mask == (True, False)
        assert entry.model.output_delays.mask == (False, False)


def test_config_validation():
    rng = np.random.default_rng(105)
    g = random_pr(rng, 4)
    with pytest.raises(DelayH2Error):
        IoDirkaConfig(order=0)
    with pytest.raises(DelayH2Error):
        IoDirkaConfig(order=2, outer_tol=0.0)
    with pytest.raises(DelayH2Error):
        io_dirka(g, IoDirkaConfig(order=5))


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_outer_tol_must_be_finite(tol):
    # run-config.json cannot hold a non-finite value
    with pytest.raises(DelayH2Error, match="finite"):
        IoDirkaConfig(order=2, outer_tol=tol)


def test_report_residuals_match_final_model():
    g, rep = small_report(106)
    fresh = optimality_residuals(g, rep.model)
    assert fresh.max_residual() == pytest.approx(rep.residuals.max_residual(),
                                                 rel=1e-12, abs=1e-15)


def test_siso_io_equals_input_delay():
    # only tau + gamma enters, so delaying both channels finds the same
    # model as delaying the input, in the form gamma = 0
    g = lag_cascade(np.random.default_rng(3))
    io = io_dirka(g, IoDirkaConfig(order=2, search=SMALL_SEARCH,
                                   outer_max_iters=60))
    inp = io_dirka(g, IoDirkaConfig(
        order=2, outer_max_iters=60,
        search=dataclasses.replace(SMALL_SEARCH, output_mask=(False,))))
    assert io.converged and inp.converged
    assert io.model.output_delays.delays == (0.0,)
    assert io.model.input_delays.delays[0] > 0.5
    assert io.gap.j == pytest.approx(inp.gap.j, rel=1e-12)


def test_init_output_delay_is_a_path_delay():
    # under io an initial output delay is the same model as that delay on
    # the input, and so gives the same report
    g = lag_cascade(np.random.default_rng(4))
    base = dict(order=2, search=SMALL_SEARCH, outer_max_iters=60)
    on_out = io_dirka(g, IoDirkaConfig(init_output_delays=(0.7,), **base))
    on_in = io_dirka(g, IoDirkaConfig(init_input_delays=(0.7,), **base))
    assert on_out.trace[0].model.output_delays.delays == (0.0,)
    assert dumps_canonical(report_to_obj(on_out)) \
        == dumps_canonical(report_to_obj(on_in))
