"""Alternating reduction loop: core IRKA pass + delay step, certified."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import corpus_model, lag_cascade, random_pr
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DelaySearchConfig,
    DimensionMismatch,
    IoDirkaConfig,
    IrkaConfig,
    PoleResidueModel,
    compute_gap,
    h2_norm_sq,
    io_dirka,
    iodirka,
    irka_reduce,
    optimality_residuals,
    precision,
)
from delayh2.delayopt import representative
from delayh2.serialize import dumps_canonical, report_to_obj

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SMALL_SEARCH = DelaySearchConfig(grid_points_per_channel=60, tau_max=4.0)


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


def test_large_gain_reduces_like_the_unit_gain_model():
    # left residues x1e4 scale ||G||^2 by 1e8: the realness tests of the
    # sums scale with them, so the run ends as the unscaled one does
    g = random_pr(np.random.default_rng(3), 12)
    big = PoleResidueModel(g.poles, 1e4 * g.left, g.right)
    ref, rep = (io_dirka(m, IoDirkaConfig(order=4)) for m in (g, big))
    assert (rep.converged, rep.outer_iterations) == (ref.converged, ref.outer_iterations)
    assert ref.converged
    assert rep.gap.j / rep.norm_g_sq == pytest.approx(ref.gap.j / ref.norm_g_sq, rel=1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_gain_exact_recovery_converges(seed):
    # left residues x1e5 scale ||G||^2 to 1e10: the recovered model's gap
    # rounds to about -1e-6, 1e-16 of ||G||^2, which is no inconsistency
    g = random_pr(np.random.default_rng(seed), 3)
    big = PoleResidueModel(g.poles, 1e5 * g.left, g.right)
    rep = io_dirka(big, IoDirkaConfig(
        order=3, search=DelaySearchConfig(grid_points_per_channel=50)))
    assert rep.converged
    assert rep.gap.j <= 1e-12 * rep.norm_g_sq


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


def test_trace_carries_each_core_reductions_counts():
    # outer iteration 1 reduces the surrogate at zero delays, which is g
    # itself, from a cold start; later entries are warm-started
    g, rep = small_report(98)
    first = irka_reduce(g, IrkaConfig(order=2))
    entry = rep.trace[0]
    assert (entry.irka_iterations, entry.irka_converged, entry.irka_jumps,
            entry.irka_reflections) == (first.iterations, first.converged,
                                        first.jumps, first.reflections)
    assert sum(e.irka_reflections for e in rep.trace) <= rep.total_reflections
    assert all(e.irka_jumps >= 0 for e in rep.trace)


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


def test_corpus_n50_s4_certifies():
    # the corpus's named hard case (N=50, order 4, input delay, seed
    # 1000 + 4): Steffensen steps stopped unconverged at J/||G||^2 0.2749
    g = corpus_model(np.random.default_rng(1004), 50)
    rep = io_dirka(g, IoDirkaConfig(order=4, search=DelaySearchConfig(
        input_mask=(True,), output_mask=(False,))))
    assert rep.converged
    assert rep.gap.j / rep.norm_g_sq == pytest.approx(0.25162, abs=5e-6)


def test_mimo_float_residual(monkeypatch):
    # the benchmark's float workload at seed 0 ends at max residual
    # 1.07e-10; Steffensen steps ended at 8.3e-8
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    rep = io_dirka(workloads.mimo_float_model(0), workloads.MimoFloat.cfg)
    assert rep.converged
    assert rep.residuals.max_residual() <= 1.1e-10


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
        io_dirka(g, IoDirkaConfig(order=5))


@pytest.mark.parametrize("kw, error, message", [
    (dict(init_input_delays=(1.0,)), DimensionMismatch,
     "init_input_delays has 1 entries for a model with 2 inputs"),
    (dict(init_output_delays=(0.0, 0.0, 0.0)), DimensionMismatch,
     "init_output_delays has 3 entries for a model with 2 outputs"),
    (dict(search=DelaySearchConfig(input_mask=(True,))), DimensionMismatch,
     "input_mask has 1 entries for a model with 2 inputs"),
    (dict(init_input_delays=("x", 0.0)), DelayH2Error,
     "init_input_delays 'x' is not a real number"),
    (dict(init_output_delays=(0.5, True)), DelayH2Error,
     "init_output_delays True is not a real number"),
    (dict(search=DelaySearchConfig(output_mask=("x", "y"))), DelayH2Error,
     "output_mask 'x' is not a boolean")],
    ids=["init-input-delays", "init-output-delays", "input-mask", "init-input-delays-str",
         "init-output-delays-bool", "output-mask-str"])
def test_per_channel_settings_must_fit_the_model(kw, error, message):
    # named before the first core reduction, not as a bare length mismatch,
    # a raw ValueError or a string read as a mask
    g = random_pr(np.random.default_rng(105), 4, ny=2, nu=2)
    with pytest.raises(error, match=message):
        io_dirka(g, IoDirkaConfig(order=2, **kw))


def test_irka_settings_carry_the_reduced_order():
    # one order: an IRKA config of another order is refused, not overwritten
    with pytest.raises(DelayH2Error, match="irka order 3 differs from the reduced order 2"):
        IoDirkaConfig(order=2, irka=IrkaConfig(order=3))
    assert IoDirkaConfig(order=2, irka=IrkaConfig(order=2, seed=4)).irka.seed == 4


@pytest.mark.parametrize("make, field", [
    (lambda: IrkaConfig(order=2.5), "order"),
    (lambda: IrkaConfig(order=True), "order"),
    (lambda: IrkaConfig(order="2"), "order"),
    (lambda: IrkaConfig(order=2, seed=1.5, init="random-stable"), "seed"),
    (lambda: IoDirkaConfig(order=2, outer_max_iters=2.5), "outer_max_iters"),
    (lambda: IoDirkaConfig(order=2.5), "order")],
    ids=["irka-order-float", "irka-order-bool", "irka-order-str", "irka-seed-float",
         "outer-max-iters-float", "iodirka-order-float"])
def test_integer_settings_are_named(make, field):
    # refused on construction, naming the field: not a raw TypeError from a
    # comparison, nor an order silently cut to an int
    with pytest.raises(DelayH2Error, match=f"^{field} .* is not an integer of at least"):
        make()


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


def test_each_search_starts_in_the_box_the_last_one_ended_in(monkeypatch):
    # the lag cascade's input delay outgrows a box of 0.5 twice; every
    # search after the first starts from the box its predecessor reported
    g = lag_cascade(np.random.default_rng(94))
    boxes = []
    original = iodirka.optimize_delays

    def spy(g, h, cfg, start=None):
        found = original(g, h, cfg, start=start)
        boxes.append((cfg.tau_max, found.tau_max))
        return found

    monkeypatch.setattr(iodirka, "optimize_delays", spy)
    rep = io_dirka(g, IoDirkaConfig(order=2, search=DelaySearchConfig(
        grid_points_per_channel=60, tau_max=0.5,
        input_mask=(True,), output_mask=(False,))))
    assert len(boxes) == rep.outer_iterations
    assert boxes[0][0] == 0.5 and boxes[-1][1] == 2.0
    for (_, ended), (started, _) in zip(boxes, boxes[1:]):
        assert started == ended


@pytest.mark.parametrize("g, search", [
    (lag_cascade(np.random.default_rng(94)),
     dataclasses.replace(SMALL_SEARCH, output_mask=(False,))),
    (random_pr(np.random.default_rng(104), 6, ny=2, nu=2),
     dataclasses.replace(SMALL_SEARCH, grid_points_per_channel=25)),
], ids=["siso-input", "mimo-io"])
def test_delay_step_is_a_broyden_step(monkeypatch, g, search):
    # surrogate 1 is built at the initial delays and surrogate 2 at the
    # first search output; every later one at x+ = F(x) - M phi(x), with
    # phi(x) = F(x) - x and M = H + I updated by Broyden's "good" inverse
    # rule from the last two points built, clipped and put in the search's
    # gauge, bit for bit; the trace marks the surrogates built off the
    # previous search output
    built = []
    original = iodirka.build_gtilde

    def spy(g, din, dout):
        built.append(np.array(din.delays + dout.delays))
        return original(g, din, dout)

    monkeypatch.setattr(iodirka, "build_gtilde", spy)
    rep = io_dirka(g, IoDirkaConfig(order=2, search=search, outer_max_iters=60))
    out = [np.array(e.model.input_delays.delays + e.model.output_delays.delays)
           for e in rep.trace]
    n = rep.outer_iterations
    assert rep.converged and n >= 4
    assert np.array_equal(built[0], np.zeros(g.nu + g.ny))
    assert np.array_equal(built[1], out[0])
    mix = np.zeros((g.nu + g.ny,) * 2)
    for i in range(2, n):
        phi = out[i - 1] - built[i - 1]
        s = built[i - 1] - built[i - 2]
        y = phi - (out[i - 2] - built[i - 2])
        hy = mix @ y - y
        den = float(s @ hy)
        if np.isfinite(den) and abs(den) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(hy)):
            mix += np.outer(s - hy, s @ mix - s) / den
        ext = np.clip(out[i - 1] - mix @ phi, 0.0, 2.0 * search.tau_max)
        din, dout = representative(
            DelayBlock(tuple(ext[: g.nu]), search.input_mask or (True,) * g.nu),
            DelayBlock(tuple(ext[g.nu:]), search.output_mask or (True,) * g.ny))
        assert np.array_equal(built[i], np.array(din.delays + dout.delays))
    assert [e.delay_jump for e in rep.trace] \
        == [i > 0 and not np.array_equal(built[i], out[i - 1]) for i in range(n)]
    assert sum(e.delay_jump for e in rep.trace) >= n - 3


def _bench_config(order):
    """The benchmark study's input-delay reduction at ``order``."""
    return IoDirkaConfig(order=order, outer_max_iters=80, irka=IrkaConfig(order=order, seed=0),
                         search=DelaySearchConfig(input_mask=(True,), output_mask=(False,)))


@pytest.mark.parametrize("order, vectors, screens, tables", [(2, 47, 9, 2), (4, 50, 12, 2)])
def test_payload_exponentials_are_formed_once_per_run(bench20, monkeypatch,
                                                      order, vectors, screens, tables):
    # Deterministic work counts of one benchmark run: exponential vectors
    # e^{mu d} of the full model (68 and 78 when every surrogate, search
    # objective, gap and certificate formed its own; each lattice's
    # z = e^{mu spacing} included), lattice screens, and builds of the
    # lattices' power tables of mu (9 and 12, one per screen). A second
    # run on the same model object forms the same again.
    counted = {}

    def exp(x, _orig=precision._xc_exp):
        counted["vectors"] += x.size // bench20.order
        return _orig(x)

    def screen(*args, _orig=precision._path_lattice):
        counted["screens"] += 1
        return _orig(*args)

    def powers(*args, _orig=precision._lattice_powers):
        counted["tables"] += 1
        return _orig(*args)

    monkeypatch.setattr(precision, "_xc_exp", exp)
    monkeypatch.setattr(precision, "_path_lattice", screen)
    monkeypatch.setattr(precision, "_lattice_powers", powers)
    for _ in range(2):
        counted.update(vectors=0, screens=0, tables=0)
        io_dirka(bench20, _bench_config(order))
        assert counted == {"vectors": vectors, "screens": screens, "tables": tables}


def test_memo_bound_leaves_the_report_bit_identical(bench20, monkeypatch):
    # a memo of one entry forms nearly everything again, with the same bits
    want = dumps_canonical(report_to_obj(io_dirka(bench20, _bench_config(2))))
    monkeypatch.setattr(precision, "MEMO_ENTRIES", 1)
    assert dumps_canonical(report_to_obj(io_dirka(bench20, _bench_config(2)))) == want
