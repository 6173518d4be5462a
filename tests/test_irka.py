"""Delay-free H2 reduction by the rational Krylov fixed point."""

import numpy as np
import pytest

import oracles
from conftest import REF_POLE, REF_RESIDUE, make_siso, payload_model, random_pr
from delayh2 import (
    DelayedModel,
    DelayH2Error,
    HighPrecisionTerms,
    IrkaConfig,
    PoleResidueModel,
    build_bench_model,
    compute_gap,
    h2_norm_sq,
    irka_reduce,
    optimality_residuals,
    realify_check,
)
from delayh2.irka import (
    _exact_mirrors,
    _pair_structure,
    _payload_closed,
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
    assert r1.final_shift_movement == r2.final_shift_movement


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


@pytest.mark.parametrize("kw", [dict(init="random-stable", seed=-1),
                                dict(shift_tol=np.inf), dict(shift_tol=np.nan)],
                         ids=["negative-seed", "shift-tol-inf", "shift-tol-nan"])
def test_config_rejects_bad_settings(kw):
    # on construction, not in numpy's generator or after a whole run
    with pytest.raises(DelayH2Error):
        IrkaConfig(order=2, **kw)


def test_max_iters_returns_best_effort():
    rng = np.random.default_rng(77)
    g = random_pr(rng, 8, ny=2, nu=2)
    res = irka_reduce(g, IrkaConfig(order=3, max_iters=1))
    assert not res.converged
    assert res.iterations == 1
    assert res.model.order == 3
    assert res.final_shift_movement > 0.0


def pencil_pair(g, shifts, bdirs, cdirs):
    """(library pencil, plain-loop direct contraction at the payload precision)."""
    shifts, bdirs, cdirs = map(np.asarray, (shifts, bdirs, cdirs))
    groups = _pair_structure(shifts)
    got = _project(g, shifts, bdirs, cdirs, groups, _payload_closed(g))
    want = oracles.direct_pencil(g.hp.poles, g.hp.left, g.hp.right, shifts,
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
    assert not _payload_closed(g)
    shifts = np.array([0.8 + 0.6j, 0.8 - 0.6j])
    bdirs = np.array([[1.0 + 0.3j], [1.0 - 0.3j]])
    cdirs = np.array([[0.6 - 0.2j], [0.6 + 0.2j]])
    with pytest.raises(DelayH2Error):
        _realify_pencil(*_project(g, shifts, bdirs, cdirs,
                                  _pair_structure(shifts), _payload_closed(g)))


def test_payload_pencil_two_mirrored_pairs():
    # order 4, both pairs exactly conjugate: one row per pair is computed
    g = build_bench_model()
    shifts = [0.3 + 0.4j, 0.3 - 0.4j, 1.1 + 0.2j, 1.1 - 0.2j]
    bdirs = [[0.8 + 0.5j], [0.8 - 0.5j], [-0.3 + 1.1j], [-0.3 - 1.1j]]
    cdirs = [[1.0 - 0.2j], [1.0 + 0.2j], [0.4 + 0.9j], [0.4 - 0.9j]]
    assert _payload_closed(g)
    assert _exact_mirrors(np.array(shifts), np.array(bdirs), np.array(cdirs),
                          _pair_structure(np.array(shifts))) == [(0, 1), (2, 3)]
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
    assert _exact_mirrors(shifts, bdirs, cdirs, _pair_structure(shifts)) == []
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
    left = list(hp.left)
    left[k] = (left[k][0] * (1 + 2.0 ** -52),)
    moved = PoleResidueModel(closed.poles, closed.left, closed.right,
                             hp=HighPrecisionTerms(hp.poles, tuple(left),
                                                   hp.right, hp.dps))
    assert _payload_closed(closed) and not _payload_closed(moved)
    for g in (closed, moved):
        got, want = pencil_pair(g, [0.8 + 0.6j, 0.8 - 0.6j, 1.5],
                                [[1.0 + 0.3j], [1.0 - 0.3j], [0.7]],
                                [[0.6 - 0.2j], [0.6 + 0.2j], [-1.1]])
        assert (np.max(np.abs(got[0].imag)) > 0.0) == (g is moved)
        for a, w in zip(got, want):
            assert np.array_equal(a, w)
