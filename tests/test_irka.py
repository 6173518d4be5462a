"""Delay-free H2 reduction by the rational Krylov fixed point."""

import numpy as np
import pytest

import oracles
from conftest import REF_POLE, REF_RESIDUE, make_siso, payload_entries, payload_model, random_pr
import delayh2.irka as irka
from delayh2 import (
    DegenerateDirections,
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    HighPrecisionTerms,
    IrkaConfig,
    NonRealModel,
    PoleResidueModel,
    RepeatedPole,
    build_bench_model,
    build_gtilde,
    canonicalize_terms,
    compute_gap,
    conjugate_pairs,
    h2_norm_sq,
    irka_reduce,
    optimality_residuals,
    realify_check,
)
from delayh2 import precision
from delayh2.delayopt import _Objective
from delayh2.irka import (
    _aitken_jump,
    _exact_mirrors,
    _next_iterate,
    _project,
    _realify_pencil,
)


def three_pole():
    # partial fractions of 1/((s+1)(s+2)(s+3))
    return make_siso([-1.0, -2.0, -3.0], [0.5, -1.0, 0.5])


def test_exact_recovery_same_order():
    rng = np.random.default_rng(71)
    g = random_pr(rng, 4)
    res = irka_reduce(g, IrkaConfig(order=4))
    assert res.converged
    gap = compute_gap(g, DelayedModel.undelayed(res.model), h2_norm_sq(g))
    assert gap.j < 1e-10


def test_exact_recovery_mimo():
    rng = np.random.default_rng(72)
    g = random_pr(rng, 3, ny=2, nu=2)
    res = irka_reduce(g, IrkaConfig(order=3))
    gap = compute_gap(g, DelayedModel.undelayed(res.model), h2_norm_sq(g))
    assert gap.j < 1e-10


def test_negligible_real_term_is_not_a_complex_residue():
    # full order, cold start: one reduced real pole's term is nearly
    # uncontrollable (|l| 4e-14, |r| 2.4e7) and its right residue has a
    # 2e-6 relative imaginary part; measured on the term, |l| |Im r| is
    # 2e-12, far below 1e-6 max(1, |l| |r|)
    g = random_pr(np.random.default_rng(3), 12)
    res = irka_reduce(g, IrkaConfig(order=12))
    assert res.model.order == 12
    assert realify_check(res.model, tol=0.0)


def test_matches_brute_force_order_two():
    g = three_pole()
    gns = h2_norm_sq(g)
    res = irka_reduce(g, IrkaConfig(order=2))
    assert res.converged
    gap = compute_gap(g, DelayedModel.undelayed(res.model), gns).j
    best = oracles.brute_force_reduce_n2(g.poles, g.left, g.right, gns)
    assert abs(gap - best) < 1e-6
    assert gap <= best + 1e-9


def test_reference_core_parameters(ref_core):
    # reported to five digits; the +Im pole carries the -Im residue
    lam = ref_core.poles[np.argmax(ref_core.poles.imag)]
    k = int(np.argmax(ref_core.poles.imag))
    phi = ref_core.left[k, 0] * ref_core.right[k, 0]
    assert lam.real == pytest.approx(REF_POLE.real, abs=1e-3)
    assert lam.imag == pytest.approx(REF_POLE.imag, abs=1e-3)
    assert phi.real == pytest.approx(REF_RESIDUE.real, abs=1e-3)
    assert phi.imag == pytest.approx(REF_RESIDUE.imag, abs=1e-3)
    assert realify_check(ref_core)


def test_hermite_certificate_on_convergence():
    rng = np.random.default_rng(73)
    for _ in range(5):
        g = random_pr(rng, int(rng.integers(4, 9)), ny=2, nu=2)
        res = irka_reduce(g, IrkaConfig(order=2))
        if not res.converged:
            continue
        r = optimality_residuals(g, res.model)
        scale = max(1.0, h2_norm_sq(g))
        assert r.max_residual() < 1e-6 * scale


def test_unconverged_candidate_has_visible_residuals():
    rng = np.random.default_rng(74)
    g = random_pr(rng, 6)
    cand = random_pr(rng, 2)
    r = optimality_residuals(g, cand)
    assert r.max_residual() > 1e-6


def test_result_is_real_and_stable():
    rng = np.random.default_rng(75)
    for _ in range(5):
        g = random_pr(rng, int(rng.integers(3, 8)), ny=2, nu=2)
        res = irka_reduce(g, IrkaConfig(order=2, init="random-stable",
                                        seed=int(rng.integers(100))))
        assert realify_check(res.model)
        assert np.all(res.model.poles.real < 0.0)


def test_deterministic_given_seed():
    rng = np.random.default_rng(76)
    g = random_pr(rng, 6, ny=2, nu=2)
    cfg = IrkaConfig(order=3, init="random-stable", seed=11)
    r1 = irka_reduce(g, cfg)
    r2 = irka_reduce(g, cfg)
    assert np.array_equal(r1.model.poles, r2.model.poles)
    assert np.array_equal(r1.model.left, r2.model.left)
    assert np.array_equal(r1.model.right, r2.model.right)
    assert r1.iterations == r2.iterations
    assert r1.jumps == r2.jumps
    assert r1.converged == r2.converged


def test_warm_start_converges():
    # shifts 1 and 2 with unit directions
    res = irka_reduce(three_pole(), IrkaConfig(order=2),
                      start=make_siso([-1.0, -2.0], [1.0, 1.0]))
    assert res.converged


def test_warm_start_is_its_models_iterate():
    # A warm start hands the iteration exactly its model's mirrored poles
    # and residue rows: started from the log-spaced initial iterate itself,
    # it repeats the default run bit for bit.
    g = random_pr(np.random.default_rng(80), 8, ny=2, nu=2)
    n = 3
    mags = np.abs(g.poles)
    shifts = np.geomspace(mags.min(), mags.max(), n) * (1.0 + 1e-9 * np.arange(n))
    unit = np.ones((n, 2)) / np.sqrt(2.0)
    start = PoleResidueModel(-shifts, unit, unit)
    want = irka_reduce(g, IrkaConfig(order=n))
    got = irka_reduce(g, IrkaConfig(order=n, init="random-stable"), start=start)
    assert want.converged and got.converged
    assert got.iterations == want.iterations
    for a, b in ((got.model.poles, want.model.poles),
                 (got.model.left, want.model.left),
                 (got.model.right, want.model.right)):
        assert np.array_equal(a, b)


def test_warm_start_must_fit():
    with pytest.raises(DelayH2Error):
        irka_reduce(three_pole(), IrkaConfig(order=2),
                    start=make_siso([-1.0], [1.0]))


def test_order_validation():
    g = three_pole()
    with pytest.raises(DelayH2Error):
        irka_reduce(g, IrkaConfig(order=0))
    with pytest.raises(DelayH2Error):
        irka_reduce(g, IrkaConfig(order=4))


def test_unknown_init_mode():
    # rejected on construction, not inside irka_reduce
    with pytest.raises(DelayH2Error, match="init mode"):
        IrkaConfig(order=2, init="bogus")


@pytest.mark.parametrize("kw", [dict(init="random-stable", seed=-1)],
                         ids=["negative-seed"])
def test_config_rejects_bad_settings(kw):
    # on construction, not in numpy's generator or after a whole run
    with pytest.raises(DelayH2Error):
        IrkaConfig(order=2, **kw)


def test_max_iters_returns_best_effort(monkeypatch):
    rng = np.random.default_rng(77)
    g = random_pr(rng, 8, ny=2, nu=2)
    cfg = IrkaConfig(order=3)
    monkeypatch.setattr(irka, "MAX_ITERS", 1)
    res = irka_reduce(g, cfg)
    assert not res.converged
    assert res.iterations == 1
    assert res.model.order == 3
    # the cap, not the movement test, ended the run: the uncapped run
    # takes more projections to a different model
    monkeypatch.undo()
    full = irka_reduce(g, cfg)
    assert full.converged and full.iterations > 1
    assert not np.array_equal(full.model.poles, res.model.poles)


def test_aitken_returns_the_limit_of_a_geometric_sequence():
    # x_k = L + c q^k per component, with rates of both signs; the last
    # component stands still and keeps x2
    limit = np.array([3.0, -1.25, 0.5, 7.0])
    c = np.array([1.0, 0.75, -2.0, 0.0])
    q = np.array([0.5, -0.25, 0.875, 0.5])
    x0, x1, x2 = (limit + c * q ** k for k in range(3))
    ext = irka.aitken_delta2(x0, x1, x2)
    assert np.array_equal(ext, limit)


def test_aitken_is_odd_bit_for_bit():
    # what keeps a mirror pair's imaginary parts exact conjugates
    rng = np.random.default_rng(90)
    x0 = rng.standard_normal(200)
    steps = rng.standard_normal(200) * np.where(np.arange(200) % 4, 1.0, 1e-15)
    x1 = x0 + steps
    x2 = x1 + steps * rng.uniform(-0.9, 0.9, 200)
    ext = irka.aitken_delta2(x0, x1, x2)
    neg = irka.aitken_delta2(-x0, -x1, -x2)
    assert np.any(ext != x2) and np.any(ext == x2)
    assert np.array_equal(neg, -ext)
    assert np.array_equal(np.signbit(neg), ~np.signbit(ext))


def geometric_history(shifts, directions, rate=0.5, step=None):
    """Three plain iterates (shifts, bdirs, cdirs, pair groups) converging
    geometrically at ``rate`` to the given limits, moving by ``step`` (per
    shift) at first; the groups are conjugate_pairs(-shifts), as
    irka_reduce forms them for each iterate."""
    shifts = np.asarray(shifts, dtype=complex)
    d = np.asarray(directions, dtype=complex)[:, None]
    step = 0.25 * shifts if step is None else np.asarray(step, dtype=complex)
    rate = np.broadcast_to(np.asarray(rate, dtype=float), shifts.shape)
    history = [(shifts + step * rate ** k, d + 0.125 * rate[:, None] ** k * d,
                d.conj() + 0.125 * rate[:, None] ** k) for k in range(3)]
    return [(s, b, c, conjugate_pairs(-s)) for s, b, c in history]


def test_aitken_jump_keeps_mirror_pairs():
    history = geometric_history([0.5 + 0.75j, 0.5 - 0.75j, 2.0],
                                [1.0 + 0.5j, 1.0 - 0.5j, -0.3])
    shifts, bdirs, cdirs = _aitken_jump(history)
    assert np.array_equal(shifts, [0.5 + 0.75j, 0.5 - 0.75j, 2.0])
    assert _exact_mirrors(shifts, bdirs, cdirs, conjugate_pairs(-shifts)) == [(0, 1)]
    assert bdirs[:, 0] == pytest.approx([1.0 + 0.5j, 1.0 - 0.5j, -0.3], rel=1e-15)


def test_aitken_jump_refuses_a_growing_difference():
    # the real shift's differences grow (rate 1.5): its "limit" is a
    # repeller, and the jump is refused as a whole
    history = geometric_history([0.5 + 0.75j, 0.5 - 0.75j, 2.0],
                                [1.0 + 0.5j, 1.0 - 0.5j, -0.3],
                                rate=[0.5, 0.5, 1.5])
    assert _aitken_jump(history) is None


def test_aitken_jump_refuses_a_changed_pair_structure():
    # Every difference shrinks, but the pair's imaginary part (4e-8, 2e-8,
    # 1e-8) falls below the real-pole threshold PAIR_RTOL |s| (1.5e-8,
    # 1.25e-8, 1.125e-8) in the last iterate, which then holds two real
    # shifts.
    history = geometric_history([1.0, 1.0], [1.0, 1.0],
                                step=[0.5 + 4e-8j, 0.5 - 4e-8j])
    assert [len(groups) for *_, groups in history] == [1, 1, 2]
    assert _aitken_jump(history) is None


@pytest.mark.parametrize("limit, step", [(-0.1, 0.8), (0.0, 0.5)])
def test_aitken_jump_refuses_a_shift_in_the_closed_left_half_plane(limit, step):
    # all three iterates are stable (shifts 0.7, 0.3, 0.1 for limit -0.1),
    # only the extrapolated shift is not (exactly 0 for limit 0)
    history = geometric_history([limit + 0j, 2.0], [1.0, 1.0],
                                step=[step, 0.5])
    assert all(np.all(s.real > 0.0) for s, *_ in history)
    assert _aitken_jump(history) is None
    ok = geometric_history([0.0625 + 0j, 2.0], [1.0, 1.0],
                           step=[0.8 + 0.0j, 0.5])
    assert _aitken_jump(ok)[0][0] == pytest.approx(0.0625, rel=1e-14)


@pytest.fixture(scope="module")
def gt_zero_delay(bench20):
    return build_gtilde(bench20, DelayBlock((0.0,), (True,)),
                        DelayBlock.zeros(1))


def test_jump_cuts_cold_iterations(gt_zero_delay, monkeypatch):
    # Machine-independent count: the plain fixed point takes 134
    # projections here. The returned model is a projection output, and
    # one more projection from it moves the shifts by less than SHIFT_TOL.
    cfg = IrkaConfig(order=2)
    res = irka_reduce(gt_zero_delay, cfg)
    assert res.converged
    assert res.jumps >= 1
    assert res.iterations <= 45
    monkeypatch.setattr(irka, "MAX_ITERS", 1)
    again = irka_reduce(gt_zero_delay, cfg, res.model)
    shifts, after = -res.model.poles, -again.model.poles
    assert np.max(np.abs(after - shifts)) / np.max(np.abs(shifts)) < irka.SHIFT_TOL


@pytest.mark.parametrize("order", [2, 4])
def test_warm_start_from_a_converged_model_takes_one_projection(gt_zero_delay, order):
    # the start keeps its canonical order, the order of every iterate, so
    # the first movement compares each shift with its own update
    cfg = IrkaConfig(order=order)
    res = irka_reduce(gt_zero_delay, cfg)
    assert res.converged
    again = irka_reduce(gt_zero_delay, cfg, res.model)
    # converged after one projection: that projection moved the shifts by
    # less than SHIFT_TOL
    assert again.converged
    assert again.iterations == 1


def test_exact_mirror_found_after_every_jump(gt_zero_delay, monkeypatch):
    # the extrapolated pair stays bitwise conjugate, so every projection
    # after a jump still computes one row for it
    calls, jumped = [], []

    def loewner(bk, g, shifts, bdirs, cdirs, groups, mirrored,
                _orig=irka._loewner_pencil):
        calls.append(([p for p in groups if p[1] is not None], mirrored))
        return _orig(bk, g, shifts, bdirs, cdirs, groups, mirrored)

    def jump(history, _orig=irka._aitken_jump):
        out = _orig(history)
        if out is not None:
            jumped.append(len(calls))
        return out

    monkeypatch.setattr(irka, "_loewner_pencil", loewner)
    monkeypatch.setattr(irka, "_aitken_jump", jump)
    res = irka_reduce(gt_zero_delay, IrkaConfig(order=2))
    assert res.jumps == len(jumped) >= 1
    after = calls[jumped[0]:]
    assert after
    for pairs, mirrored in after:
        assert pairs == [(0, 1)]
        assert mirrored == pairs


def pencil_pair(g, shifts, bdirs, cdirs):
    """(library pencil, plain-loop direct contraction at the payload precision)."""
    shifts, bdirs, cdirs = map(np.asarray, (shifts, bdirs, cdirs))
    groups = conjugate_pairs(-shifts)
    got = _project(g, shifts, bdirs, cdirs, groups)
    want = oracles.direct_pencil(*payload_entries(g.hp), shifts,
                                 bdirs, cdirs, g.hp.dps,
                                 [p for p in groups if p[1] is not None])
    return got, want


def test_payload_pencil_matches_direct_contraction_on_benchmark():
    # Loewner assembly from transfer values, conjugate pair combined on the
    # n-by-n pencil: the same float64 pencil as contracting over the terms
    got, want = pencil_pair(build_bench_model(),
                            [0.2 + 0.2j, 0.2 - 0.2j, 0.7],
                            [[1.0 + 0.5j], [1.0 - 0.5j], [0.3]],
                            [[0.4 - 1.0j], [0.4 + 1.0j], [-0.8]])
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_payload_pencil_matches_direct_contraction_mimo():
    rng = np.random.default_rng(81)
    g = payload_model(random_pr(rng, 6, ny=2, nu=3), 30)
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got, want = pencil_pair(g, [0.9 + 1.3j, 0.9 - 1.3j, 0.4],
                            [b[0], b[0].conj(), b[1].real],
                            [c[0], c[0].conj(), c[1].real])
    for a, w in zip(got, want):
        assert np.array_equal(a, w)


def test_payload_pencil_close_shifts_keep_precision():
    # Shifts 1e-8 apart cancel 8 digits in the Loewner quotient; the
    # working precision rises by that much, so a 20-digit payload still
    # gives the pencil to far below float64 rounding.
    rng = np.random.default_rng(82)
    g = payload_model(random_pr(rng, 6, ny=2, nu=3), 20)
    b = rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 2))
    got, want = pencil_pair(g, [0.7, 0.7 + 1e-8, 1.9], b, c)
    for a, w in zip(got, want):
        assert np.max(np.abs(a - w)) <= 1e-15 * np.max(np.abs(w))


def test_unclosed_payload_pencil_fails_to_realify():
    # The lone pole -0.5+1j leaves the payload without conjugate closure.
    # An exactly conjugate shift pair must not be mirrored onto it: the
    # pencil stays complex, and realifying it raises.
    g = payload_model(make_siso([-1.0 + 2.0j, -1.0 - 2.0j, -3.0, -0.5 + 1.0j],
                                [0.7 - 0.4j, 0.7 + 0.4j, 1.2, 0.5 + 0.3j]), 30)
    assert not g.hp.conjugate_closed
    shifts = np.array([0.8 + 0.6j, 0.8 - 0.6j])
    bdirs = np.array([[1.0 + 0.3j], [1.0 - 0.3j]])
    cdirs = np.array([[0.6 - 0.2j], [0.6 + 0.2j]])
    with pytest.raises(DelayH2Error):
        _realify_pencil(*_project(g, shifts, bdirs, cdirs, conjugate_pairs(-shifts)))


def test_payload_pencil_two_mirrored_pairs():
    # order 4, both pairs exactly conjugate: one row per pair is computed
    g = build_bench_model()
    shifts = [0.3 + 0.4j, 0.3 - 0.4j, 1.1 + 0.2j, 1.1 - 0.2j]
    bdirs = [[0.8 + 0.5j], [0.8 - 0.5j], [-0.3 + 1.1j], [-0.3 - 1.1j]]
    cdirs = [[1.0 - 0.2j], [1.0 + 0.2j], [0.4 + 0.9j], [0.4 - 0.9j]]
    assert g.hp.conjugate_closed
    assert _exact_mirrors(np.array(shifts), np.array(bdirs), np.array(cdirs),
                          conjugate_pairs(-np.array(shifts))) == [(0, 1), (2, 3)]
    got, want = pencil_pair(g, shifts, bdirs, cdirs)
    for a, w in zip(got, want):
        assert np.array_equal(a, w)


def test_payload_pencil_nearly_conjugate_directions_not_mirrored():
    # directions conjugate only to 1e-12: both rows are computed, and the
    # pencil keeps the imaginary parts the terms give it
    g = build_bench_model()
    shifts = np.array([0.4 + 0.3j, 0.4 - 0.3j, 0.9])
    bdirs = np.array([[1.0 + 0.5j], [(1.0 - 0.5j) * (1 + 1e-12)], [0.3]])
    cdirs = np.array([[0.4 - 1.0j], [0.4 + 1.0j], [-0.8]])
    assert _exact_mirrors(shifts, bdirs, cdirs, conjugate_pairs(-shifts)) == []
    got, want = pencil_pair(g, shifts, bdirs, cdirs)
    assert np.max(np.abs(got[0].imag)) > 0.0
    for a, w in zip(got, want):
        assert np.array_equal(a, w)


def test_payload_pencil_nearly_closed_payload_not_mirrored():
    # A closed complex 50-digit payload is mirrored. Moving one residue
    # entry by one unit in the last place of its binary64 value leaves the
    # payload not closed, and the same shift pair is then not mirrored.
    closed = payload_model(make_siso(
        [-1.0 + 2.0j, -1.0 - 2.0j, -3.0, -0.5 + 1.0j, -0.5 - 1.0j],
        [0.7 - 0.4j, 0.7 + 0.4j, 1.2, 0.5 + 0.3j, 0.5 - 0.3j]), 50)
    hp = closed.hp
    k = int(np.argmax(closed.poles.imag < 0))
    left = payload_entries(hp)[1]
    left[k] = [left[k][0] * (1 + 2.0 ** -52)]
    moved = PoleResidueModel(closed.poles, closed.left, closed.right,
                             hp=HighPrecisionTerms(hp.poles, left, hp.right, hp.dps))
    assert closed.hp.conjugate_closed and not moved.hp.conjugate_closed
    for g in (closed, moved):
        got, want = pencil_pair(g, [0.8 + 0.6j, 0.8 - 0.6j, 1.5],
                                [[1.0 + 0.3j], [1.0 - 0.3j], [0.7]],
                                [[0.6 - 0.2j], [0.6 + 0.2j], [-1.1]])
        assert (np.max(np.abs(got[0].imag)) > 0.0) == (g is moved)
        for a, w in zip(got, want):
            assert np.array_equal(a, w)


# ---------------------------------------------------------------------------
# the payload core, pinned bit for bit, and its extended-precision work

# (iterations, jumps, hex of (Re, Im) of pole, left, right for the +Im member
# of each conjugate pair), recorded from the payload IRKA before the pencil
# and the certificate shared one transfer-data kernel
RECORDED_PAYLOAD_CORES = (
    (30, 5, [[("-0x1.0a990a7ed0cd8p-4", "0x1.03e953e0bb429p-3"),
              ("0x1.2a5d1074fcc05p-2", "0x0.0p+0"),
              ("-0x1.963115a706cb3p-4", "-0x1.188d089a3db2dp-2")]]),
    (19, 4, [[("-0x1.1b1ec4da5bd88p-3", "0x1.0b375efa6ad62p-3"),
              ("0x1.08dcde839e695p-1", "0x1.f5d99feefa1afp-57"),
              ("-0x1.a07b18007abc2p-3", "-0x1.e713fe744d7d8p-2")],
             [("-0x1.e40eb342aa75ap-4", "0x1.a5663a16b7397p-2"),
              ("0x1.3f47f94b497f8p-2", "-0x0.0p+0"),
              ("0x1.31fad089a6e7dp-2", "0x1.6cc978cff6620p-4")]]),
    (1, 0, [[("-0x1.1b1ec4da1ff46p-3", "0x1.0b375efa84229p-3"),
             ("0x1.08dcde836e4fdp-1", "-0x0.0p+0"),
             ("-0x1.a07b1800aee28p-3", "-0x1.e713fe73d9b8ap-2")],
            [("-0x1.e40eb3427fd32p-4", "0x1.a5663a16f226dp-2"),
             ("0x1.3f47f94b1b48ep-2", "-0x1.fa706fef99faap-58"),
             ("0x1.31fad089a59ffp-2", "0x1.6cc978cd80664p-4")]]),
)


@pytest.fixture(scope="module")
def gt_half_delay(bench20):
    return build_gtilde(bench20, DelayBlock((0.5,), (True,)), DelayBlock.zeros(1))


def test_payload_core_is_unchanged(gt_half_delay):
    # cold at orders 2 and 4, then one warm restart from the order-4 core
    n2 = irka_reduce(gt_half_delay, IrkaConfig(order=2))
    n4 = irka_reduce(gt_half_delay, IrkaConfig(order=4))
    warm = irka_reduce(gt_half_delay, IrkaConfig(order=4), n4.model)
    for res, (iterations, jumps, terms) in zip((n2, n4, warm), RECORDED_PAYLOAD_CORES):
        m = res.model
        assert res.converged and (res.iterations, res.jumps) == (iterations, jumps)
        for a in (m.poles, m.left, m.right):
            assert np.array_equal(a[1::2], np.conj(a[::2]))
        assert [[(v.real.hex(), v.imag.hex()) for v in (p, l[0], r[0])]
                for p, l, r in zip(m.poles[::2], m.left[::2], m.right[::2])] == terms


def test_extended_precision_work_is_capped(bench20, gt_half_delay, monkeypatch):
    # Deterministic operation counts for one warm order-4 projection with
    # its certificate, and for the certificate alone: roundings of the
    # extended-precision scalar (1346 and 960 when the pencil and the
    # certificate summed on XComplex objects, the certificate at all 2n
    # points), and the points the transfer kernel sums, one reciprocal per
    # term each (the pencil one per exact mirror pair, the certificate
    # every point). The H2 cross kernel reads H(-mu_j)
    # from the same transfer kernel, so a norm of a fresh benchmark model
    # (its payload conversion included), a gap at tau = 0.5 and a delay-
    # search objective build divide no XComplex at all (2099, 305 and 246
    # roundings with 400, 40 and 40 divisions when they formed H(-mu_j) on
    # XComplex objects), and round no -H'(-mu_j), which they do not read
    # (159, 165 and 106 roundings when the kernel formed it). Each call
    # runs once first, so every payload conversion it caches is made
    # before counting.
    core = irka_reduce(gt_half_delay, IrkaConfig(order=4)).model
    core2 = irka_reduce(gt_half_delay, IrkaConfig(order=2)).model
    delayed2 = DelayedModel(core2, DelayBlock((0.5,), (True,)), DelayBlock.zeros(1))
    norm_g = h2_norm_sq(bench20)
    counted = {"round": 0, "points": 0, "div": 0}

    def rounding(*args, _orig=precision._round):
        counted["round"] += 1
        return _orig(*args)

    def summing(s, *args, _orig=precision._resolvent_sums):
        counted["points"] += s.size
        return _orig(s, *args)

    def dividing(a, b, _orig=precision.XComplex.__truediv__):
        counted["div"] += 1
        return _orig(a, b)

    for call, ceilings in (
            (lambda: irka_reduce(gt_half_delay, IrkaConfig(order=4), core),
             {"round": 114, "points": 6}),
            (lambda: optimality_residuals(gt_half_delay, core), {"round": 8, "points": 4}),
            (lambda: h2_norm_sq(build_bench_model()), {"round": 139, "points": 20, "div": 0}),
            (lambda: compute_gap(bench20, delayed2, norm_g),
             {"round": 145, "points": 20, "div": 0}),
            (lambda: _Objective(bench20, core2, np.array([0]), np.array([], dtype=int)),
             {"round": 86, "points": 20, "div": 0})):
        call()
        with monkeypatch.context() as patch:
            patch.setattr(precision, "_round", rounding)
            patch.setattr(precision, "_resolvent_sums", summing)
            patch.setattr(precision.XComplex, "__truediv__", dividing)
            counted.update(round=0, points=0, div=0)
            call()
        for name, ceiling in ceilings.items():
            assert counted[name] <= ceiling, name


# ---------------------------------------------------------------------------
# the float step: raw canonical arrays, the model built once at exit


def eigen_output(rng, n_real, n_pairs, ny, nu):
    """(lam, CX, BX) as a reduced pencil's eigen-decomposition gives them:
    conjugate pairs equal only to rounding, in a shuffled order."""
    lam = list(-rng.uniform(0.1, 3.0, n_real) + 0j)
    cols = [rng.standard_normal(ny) + 0j for _ in range(n_real)]
    rows = [rng.standard_normal(nu) + 0j for _ in range(n_real)]
    noise = lambda *shape: 1e-13 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for _ in range(n_pairs):
        z = complex(-rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
        c = rng.standard_normal(ny) + 1j * rng.standard_normal(ny)
        b = rng.standard_normal(nu) + 1j * rng.standard_normal(nu)
        lam += [z, np.conj(z) + noise()]
        cols += [c, np.conj(c) + noise(ny)]
        rows += [b, np.conj(b) + noise(nu)]
    order = rng.permutation(len(lam))
    return np.array(lam)[order], np.array(cols).T[:, order], np.array(rows)[order]


@pytest.mark.parametrize("n_real, n_pairs, ny, nu",
                         [(4, 0, 1, 1), (0, 2, 1, 1), (1, 2, 2, 2), (3, 1, 2, 3)])
def test_lean_step_is_the_models_iterate(n_real, n_pairs, ny, nu):
    rng = np.random.default_rng(1000 * n_real + 100 * n_pairs + 10 * ny + nu)
    for _ in range(25):
        lam, CX, BX = eigen_output(rng, n_real, n_pairs, ny, nu)
        m = PoleResidueModel(*canonicalize_terms(lam, CX.T, BX))
        got = _next_iterate(lam, CX, BX)
        for a, b in zip(got, (-m.poles, m.right, m.left)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_canonical_terms_do_not_depend_on_the_input_order():
    rng = np.random.default_rng(71)
    for _ in range(10):
        lam, CX, BX = eigen_output(rng, 2, 2, 2, 2)
        ref = PoleResidueModel(*canonicalize_terms(lam, CX.T, BX))
        for _ in range(5):
            p = rng.permutation(lam.size)
            m = PoleResidueModel(*canonicalize_terms(lam[p], CX.T[p], BX[p]))
            for a, b in zip((m.poles, m.left, m.right), (ref.poles, ref.left, ref.right)):
                assert a.tobytes() == b.tobytes()


def _lone_pole(out):
    lam, left, right = out
    return np.append(lam[:-1], lam[-1] + 0.5j), left, right


def _repeated_pole(out):
    lam, left, right = (a.copy() for a in out)
    lam[1] = lam[0]
    return lam, left, right


def _zero_direction(out):
    lam, left, right = (a.copy() for a in out)
    right[0] = 0.0
    return lam, left, right


@pytest.mark.parametrize("error, spoil_in, spoil_out", [
    (NonRealModel, _lone_pole, None),
    (RepeatedPole, None, _repeated_pole),
    (DegenerateDirections, None, _zero_direction),
], ids=["non-real", "repeated-pole", "degenerate-directions"])
def test_step_errors_raise_at_their_iteration(monkeypatch, error, spoil_in, spoil_out):
    # the third canonicalization is spoiled the way each check catches; the
    # step raises what building the model (or the direction check after it)
    # raised, in that same iteration
    g = random_pr(np.random.default_rng(61), 8)
    assert irka_reduce(g, IrkaConfig(order=3)).iterations > 3
    calls = []

    def canonicalize(lam, left, right, _orig=irka.canonicalize_terms):
        calls.append(1)
        spoiled = len(calls) == 3
        if spoiled and spoil_in:
            lam, left, right = spoil_in((lam, left, right))
        out = _orig(lam, left, right)
        return spoil_out(out) if spoiled and spoil_out else out

    monkeypatch.setattr(irka, "canonicalize_terms", canonicalize)
    with pytest.raises(error):
        irka_reduce(g, IrkaConfig(order=3))
    assert len(calls) == 3
