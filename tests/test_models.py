"""Model types, state-space conversion, transfer/impulse evaluation."""

import mpmath
import numpy as np
import pytest

import oracles
from conftest import make_siso, payload_entries, payload_model, random_pr, random_ss
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DimensionMismatch,
    EvalAtPole,
    HighPrecisionTerms,
    NonInvertibleE,
    NonRealModel,
    PoleResidueModel,
    RepeatedPole,
    StateSpaceModel,
    Unstable,
    build_bench_model,
    canonicalize_terms,
    conjugate_pairs,
    eval_transfer,
    eval_transfer_derivative,
    h2_norm_sq,
    impulse_response,
    pole_residue_from_state_space,
    realify_check,
)
from delayh2.models import transfer_data, transfer_values
from delayh2.precision import Backend


def first_order():
    return make_siso([-1.0], [1.0])


# ---------------------------------------------------------------------------
# transfer evaluation


def test_eval_transfer_first_order():
    m = first_order()
    assert eval_transfer(m, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert eval_transfer(m, 1.0)[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_eval_transfer_derivative_first_order():
    m = first_order()
    assert eval_transfer_derivative(m, 0.0)[0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_eval_at_pole_raises():
    m = first_order()
    with pytest.raises(EvalAtPole):
        eval_transfer(m, -1.0)
    with pytest.raises(EvalAtPole):
        eval_transfer_derivative(m, -1.0 + 1e-14j)


def test_eval_pole_guard_is_relative_to_each_pole():
    # the radius is EVAL_POLE_RTOL max(1, |p|) around each pole p, so a far
    # pole does not widen the guard around a near one
    m = make_siso([-1.0, -1e9], [1.0, 1.0])
    assert eval_transfer(m, -0.9999)[0, 0] == pytest.approx(1e4, rel=1e-9)
    for s in (-1.0 + 1e-13, -1e9 * (1 + 1e-13), -1e9 + 5e-4j):
        with pytest.raises(EvalAtPole):
            eval_transfer(m, s)


def test_eval_transfer_matches_plain_loop():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_pr(rng, int(rng.integers(2, 7)), ny=2, nu=3)
        s = complex(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0))
        want = oracles.pr_transfer(m.poles, m.left, m.right, s)
        assert np.allclose(eval_transfer(m, s), want, rtol=1e-12, atol=1e-14)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        m = random_pr(rng, int(rng.integers(1, 8)), ny=2, nu=2)
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
        fd = (eval_transfer(m, s + h) - eval_transfer(m, s - h)) / (2 * h)
        an = eval_transfer_derivative(m, s)
        assert np.max(np.abs(fd - an)) < 1e-6 * max(1.0, np.max(np.abs(an)))


# ---------------------------------------------------------------------------
# the transfer-data kernel

KERNEL_POINTS = np.array([0.3 - 0.7j, 0.3 + 0.7j, 1.1, 0.05 + 2.0j])


def exact_transfer(m, s):
    """(G(s), -G'(s), sum_k |psi_k| / |s - mu_k|, the same over |s - mu_k|^2)
    by a plain loop in mpmath at 80 digits over the model's exact terms
    (its payload, where it has one)."""
    terms = payload_entries(m.hp) if m.hp is not None else (m.poles, m.left, m.right)
    out = [np.zeros((m.ny, m.nu), dtype=complex) for _ in range(4)]
    with mpmath.workdps(80):
        for a in range(m.ny):
            for b in range(m.nu):
                sums = [mpmath.mpc(0)] * 2 + [mpmath.mpf(0)] * 2
                for p, l, r in zip(*terms):
                    w = 1 / (mpmath.mpc(s) - mpmath.mpc(p))
                    psi = mpmath.mpc(l[a]) * mpmath.mpc(r[b])
                    sums = [sums[0] + psi * w, sums[1] + psi * w * w,
                            sums[2] + abs(psi * w), sums[3] + abs(psi * w * w)]
                for o, v in zip(out, sums):
                    o[a, b] = complex(v)
    return out


@pytest.fixture(params=["benchmark-payload", "float-2x2", "corpus-n200"])
def kernel_model(request, corpus):
    if request.param == "benchmark-payload":
        return build_bench_model()
    if request.param == "float-2x2":
        return random_pr(np.random.default_rng(41), 6, ny=2, nu=2)
    return corpus[200]


def test_kernel_matches_the_exact_sums(kernel_model):
    # A payload's (G, -G') are formed at its working precision and rounded
    # once: within one binary64 rounding of each part. A float model's sum
    # errs by its binary64 arithmetic: a few roundings per term.
    m = kernel_model
    val, nder = transfer_values(m, KERNEL_POINTS)
    u = 2.0 ** -53
    for i, s in enumerate(KERNEL_POINTS):
        want, want_nder, size, size_nder = exact_transfer(m, s)
        for got, w, scale in ((val[i], want, size), (nder[i], want_nder, size_nder)):
            if m.hp is not None:
                for part in (np.real, np.imag):
                    assert np.all(np.abs(part(got) - part(w))
                                  <= 2 * u * np.abs(part(w)) + 1e-30 * np.abs(w))
            else:
                assert np.all(np.abs(got - w) <= 8 * (m.order + 2) * u * scale)
        assert np.array_equal(eval_transfer(m, s), val[i])
        assert np.array_equal(eval_transfer_derivative(m, s), -nder[i])


def test_kernel_mirror_rows_are_exact_conjugates():
    m = build_bench_model()
    assert m.hp.conjugate_closed
    val, nder = transfer_values(m, KERNEL_POINTS[:2])
    assert np.array_equal(val[1], np.conj(val[0]))
    assert np.array_equal(nder[1], np.conj(nder[0]))


def summed_rows(monkeypatch, m, points):
    """Points the kernel sums over (the others are mirrors)."""
    seen = []

    def sums(self, s, m, _orig=Backend.resolvent_sums):
        seen.append(s.size)
        return _orig(self, s, m)

    with monkeypatch.context() as patch:
        patch.setattr(Backend, "resolvent_sums", sums)
        transfer_values(m, points)
    return seen[0]


def test_kernel_sums_both_rows_unless_exactly_mirrored(monkeypatch):
    # a conjugate pair of points on a closed payload is summed once; the
    # same pair on a payload moved out of exact closure by one residue ulp,
    # or a pair conjugate only to rounding, is summed twice
    closed = payload_model(make_siso(
        [-1.0 + 2.0j, -1.0 - 2.0j, -3.0, -0.5 + 1.0j, -0.5 - 1.0j],
        [0.7 - 0.4j, 0.7 + 0.4j, 1.2, 0.5 + 0.3j, 0.5 - 0.3j]), 50)
    hp = closed.hp
    k = int(np.argmax(closed.poles.imag < 0))
    left = payload_entries(hp)[1]
    left[k] = [left[k][0] * (1 + 2.0 ** -52)]
    moved = PoleResidueModel(closed.poles, closed.left, closed.right,
                             hp=HighPrecisionTerms(hp.poles, left, hp.right, hp.dps))
    pair = np.array([0.8 - 0.6j, 0.8 + 0.6j])
    near = np.array([pair[0], pair[1] * (1 + 2.0 ** -52)])
    assert closed.hp.conjugate_closed and not moved.hp.conjugate_closed
    assert summed_rows(monkeypatch, closed, pair) == 1
    assert summed_rows(monkeypatch, moved, pair) == 2
    assert summed_rows(monkeypatch, closed, near) == 2
    # the extended-precision sums are exact before one truncation, so a
    # mirror's data are what summing at its point gives, bit for bit
    bk = Backend(hp.dps)
    with bk.context():
        mirrored = transfer_data(bk, closed, pair)
        summed = bk.resolvent_sums(pair, closed)
    parts = lambda z: (z.re, z.im, z.exp)
    for a, b in zip(mirrored, summed):
        assert list(map(parts, a.flat)) == list(map(parts, b.flat))
        assert parts(b[1, 0, 0]) == parts(b[0, 0, 0].conjugate())


# ---------------------------------------------------------------------------
# state-space conversion


def test_state_space_first_order():
    ss = StateSpaceModel(np.eye(1), np.array([[-1.0]]), np.array([[1.0]]),
                         np.array([[1.0]]))
    m = pole_residue_from_state_space(ss)
    assert m.order == 1
    assert m.poles[0] == pytest.approx(-1.0)
    assert (m.left[0, 0] * m.right[0, 0]).real == pytest.approx(1.0, abs=1e-12)


def test_state_space_matches_resolvent_siso():
    rng = np.random.default_rng(21)
    ss = random_ss(rng, 4)
    m = pole_residue_from_state_space(ss)
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        direct = ss.C @ np.linalg.solve(ss.E * s - ss.A, ss.B)
        got = eval_transfer(m, s)
        assert np.max(np.abs(got - direct)) < 1e-8 * max(1.0, np.max(np.abs(direct)))


def test_state_space_matches_resolvent_mimo():
    rng = np.random.default_rng(22)
    ss = random_ss(rng, 6, ny=2, nu=2)
    m = pole_residue_from_state_space(ss)
    assert realify_check(m)
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        direct = ss.C @ np.linalg.solve(ss.E * s - ss.A, ss.B)
        got = eval_transfer(m, s)
        assert np.max(np.abs(got - direct)) < 1e-8 * max(1.0, np.max(np.abs(direct)))


def test_term_order_deterministic_under_state_permutation():
    rng = np.random.default_rng(23)
    ss = random_ss(rng, 5, ny=2, nu=2)
    perm = rng.permutation(5)
    P = np.eye(5)[perm]
    ss2 = StateSpaceModel(P @ ss.E @ P.T, P @ ss.A @ P.T, P @ ss.B, ss.C @ P.T)
    m1 = pole_residue_from_state_space(ss)
    m2 = pole_residue_from_state_space(ss2)
    assert np.allclose(m1.poles, m2.poles, rtol=1e-9, atol=1e-12)
    prod1 = np.einsum("jm,jl->jml", m1.left, m1.right)
    prod2 = np.einsum("jm,jl->jml", m2.left, m2.right)
    assert np.allclose(prod1, prod2, rtol=1e-8, atol=1e-10)


def test_repeated_pole_raises():
    ss = StateSpaceModel(np.eye(2), np.diag([-1.0, -1.0]),
                         np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(RepeatedPole):
        pole_residue_from_state_space(ss)


def test_pole_distance_is_relative_to_the_pair():
    # a far pole does not widen the tolerance between two near ones: the
    # rule is |p - q| < REPEATED_POLE_RTOL max(1, |p|, |q|)
    poles = [-1.0, -1.5, -1e8]
    m = make_siso(poles, [1.0, 1.0, 1.0])
    assert np.array_equal(np.sort(m.poles.real), np.sort(poles))
    ss = StateSpaceModel(np.eye(3), np.diag(poles), np.ones((3, 1)), np.ones((1, 3)))
    m = pole_residue_from_state_space(ss)
    assert np.array_equal(np.sort(m.poles.real), np.sort(poles))
    with pytest.raises(RepeatedPole):
        make_siso([-1e8, -1e8 * (1 + 1e-9)], [1.0, 1.0])


def test_state_space_pair_next_to_a_far_pole():
    # the real/pair test is relative to each pole: -1 +- 0.5i stays a pair
    # next to -1e9 and keeps its complex residues
    A = np.zeros((3, 3))
    A[:2, :2] = [[-1.0, 0.5], [-0.5, -1.0]]
    A[2, 2] = -1e9
    ss = StateSpaceModel(np.eye(3), A, np.ones((3, 1)), np.ones((1, 3)))
    m = pole_residue_from_state_space(ss)
    assert m.poles == pytest.approx([-1e9, -1.0 + 0.5j, -1.0 - 0.5j], rel=1e-12)
    assert realify_check(m)
    for s in (0.5, 1j, 2.0 + 3.0j):
        direct = ss.C @ np.linalg.solve(s * np.eye(3) - A, ss.B)
        assert eval_transfer(m, s) == pytest.approx(direct, rel=1e-12)


def test_unstable_state_space_raises():
    with pytest.raises(Unstable):
        StateSpaceModel(np.eye(1), np.array([[0.5]]), np.eye(1), np.eye(1))


def test_singular_e_raises():
    with pytest.raises(NonInvertibleE):
        StateSpaceModel(np.ones((2, 2)), -np.eye(2), np.ones((2, 1)),
                        np.ones((1, 2)))


# ---------------------------------------------------------------------------
# pole/residue validation


def test_pole_residue_rejects_unstable():
    with pytest.raises(Unstable):
        make_siso([0.1], [1.0])


def test_pole_residue_rejects_repeated():
    with pytest.raises(RepeatedPole):
        make_siso([-1.0, -1.0 + 1e-12j], [1.0, 1.0])


def test_pole_residue_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        PoleResidueModel(np.array([-1.0 + 0j]), np.ones((2, 1), complex),
                         np.ones((1, 1), complex))


@pytest.mark.parametrize("poles, left, right", [
    ([-1], [[1, 2]], [[1]]),
    ([-1], [[1]], [[1, 2]]),
    ([-1, -2], [[1], [1]], [[1], [1]]),
], ids=["two-outputs", "two-inputs", "two-terms"])
def test_pole_residue_rejects_payload_of_other_shape(poles, left, right):
    # a 1x1 one-term model must not carry a payload of another system: the
    # sums read the payload, so a 2x1 one would give ||G||^2 = 2.5, not 0.5
    hp = lambda *terms: HighPrecisionTerms(*(np.array(a, dtype=complex) for a in terms), 30)
    model = lambda payload: PoleResidueModel(np.array([-1.0 + 0j]), np.ones((1, 1), complex),
                                             np.ones((1, 1), complex), hp=payload)
    assert h2_norm_sq(model(hp([-1], [[1]], [[1]]))) == 0.5
    with pytest.raises(DimensionMismatch):
        model(hp(poles, left, right))


def test_pole_residue_rejects_nonfinite():
    with pytest.raises(NonRealModel):
        make_siso([-1.0], [np.inf])


# ---------------------------------------------------------------------------
# delay blocks


def test_delay_block_basics():
    b = DelayBlock((0.5, 0.0), (True, False))
    assert len(b) == 2
    assert np.allclose(b.as_array(), [0.5, 0.0])
    assert DelayBlock.zeros(3).delays == (0.0, 0.0, 0.0)
    assert not any(DelayBlock.none(2).mask)


def test_delay_block_rejects_negative():
    with pytest.raises(DelayH2Error):
        DelayBlock((-0.1,))


def test_delay_block_rejects_masked_off_delay():
    with pytest.raises(DelayH2Error):
        DelayBlock((0.3,), (False,))


def test_delay_block_rejects_mask_length():
    with pytest.raises(DimensionMismatch):
        DelayBlock((0.1, 0.2), (True,))


def test_delayed_model_dimension_check():
    core = make_siso([-1.0], [1.0])
    with pytest.raises(DimensionMismatch):
        DelayedModel(core, DelayBlock.zeros(2), DelayBlock.zeros(1))


# ---------------------------------------------------------------------------
# impulse response


def test_impulse_first_order():
    m = first_order()
    t = np.linspace(0.0, 5.0, 501)
    y = impulse_response(m, t)
    assert y.shape == (1, 1, 501)
    assert np.max(np.abs(y[0, 0] - np.exp(-t))) < 1e-12


def test_impulse_pure_input_delay_shift():
    m = DelayedModel(first_order(), DelayBlock((2.0,), (True,)),
                     DelayBlock.zeros(1))
    t = np.linspace(0.0, 5.0, 501)
    y = impulse_response(m, t)[0, 0]
    want = np.where(t >= 2.0, np.exp(-(t - 2.0)), 0.0)
    assert np.max(np.abs(y - want)) < 1e-12


def test_impulse_matches_loop_oracle():
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 8.0, 400)
    for _ in range(10):
        core = random_pr(rng, int(rng.integers(2, 7)), ny=2, nu=2)
        tau = tuple(rng.uniform(0.0, 1.5, size=2))
        gam = tuple(rng.uniform(0.0, 1.5, size=2))
        m = DelayedModel(core, DelayBlock(tau), DelayBlock(gam))
        got = impulse_response(m, t)
        want = oracles.delayed_impulse(core.poles, core.left, core.right,
                                       tau, gam, t)
        assert np.max(np.abs(got - want)) < 1e-9


def test_impulse_rejects_nonreal_model():
    m = make_siso([-1.0 + 1.0j], [1.0])
    with pytest.raises(NonRealModel):
        impulse_response(m, np.linspace(0.0, 1.0, 10))


def test_impulse_rejects_bad_grid():
    m = first_order()
    with pytest.raises(DelayH2Error):
        impulse_response(m, np.array([1.0, 0.5]))
    with pytest.raises(DelayH2Error):
        impulse_response(m, np.array([-1.0, 0.5]))


@pytest.mark.parametrize("grid", [[np.nan], [0.0, np.nan], [0.0, np.inf]])
def test_impulse_rejects_nonfinite_grid(grid):
    # NaN passes "nondecreasing and nonnegative", so finiteness is its own check
    with pytest.raises(DelayH2Error, match="finite"):
        impulse_response(first_order(), np.array(grid))


# ---------------------------------------------------------------------------
# realness check


def test_realify_check_cases():
    assert realify_check(make_siso([-1.0], [1.0]))
    assert not realify_check(make_siso([-1.0 + 1.0j], [1.0]))
    assert realify_check(make_siso([-1.0 + 1.0j, -1.0 - 1.0j],
                                   [0.5 + 0.2j, 0.5 - 0.2j]))


def test_realness_of_a_pair_next_to_a_far_pole():
    m = make_siso([-1.0 + 0.5j, -1.0 - 0.5j, -1e9], [0.5 - 0.25j, 0.5 + 0.25j, 1.0])
    assert realify_check(m, tol=1e-8)
    t = np.linspace(0.0, 2.0, 5)
    want = 2.0 * ((0.5 - 0.25j) * np.exp((-1.0 + 0.5j) * t)).real + np.exp(-1e9 * t)
    assert impulse_response(m, t)[0, 0] == pytest.approx(want, rel=1e-13)


def test_conjugate_pairs_are_relative_to_each_pole():
    # |Im p| <= PAIR_RTOL max(1, |p|) reads p as real, whatever the others
    assert conjugate_pairs([-1e9 + 5.0j, -1.0 + 5e-9j]) == [(0, None), (1, None)]
    assert conjugate_pairs([-1.0 + 0.5j, -1e9, -1.0 - 0.5j]) == [(0, 2), (1, None)]
    for poles in ([-1.0 + 2e-8j, -1e9], [-1e9, -1.0 - 2e-8j],
                  [-1.0 + 1.0j, -1.0 - 1.001j]):
        with pytest.raises(NonRealModel, match="no conjugate partner"):
            conjugate_pairs(poles)


def test_real_pole_leak_is_measured_on_the_term():
    # |Im l| |r| + |l| |Im r| against 1e-6 max(1, |l| |r|): a negligible
    # term passes whatever the relative imaginary part of one factor
    pole = np.array([-1.0 + 0j])
    p, lv, rv = canonicalize_terms(pole, np.array([[4e-14]]),
                                   np.array([[2.4e7 * (1 + 2e-6j)]]))
    assert not any(np.any(a.imag) for a in (p, lv, rv))
    assert (lv * rv).real == pytest.approx(9.6e-7, rel=1e-12)
    with pytest.raises(NonRealModel, match="carries complex residues"):
        canonicalize_terms(pole, np.array([[1.0]]), np.array([[1.0 + 1e-3j]]))


def test_conjugate_pairs_pick_the_nearest_partner():
    # two pairs with one real part, perturbed by rounding: a (Re, |Im|)
    # sort interleaves them as 2i, -1i, 1i, -2i; the pairing does not
    eps = np.finfo(float).eps
    poles = np.array([complex(-1 - 2 * eps, 2), complex(-1 - eps, -1),
                      complex(-1, 1), complex(-1 + 2 * eps, -2)])
    assert conjugate_pairs(poles) == [(0, 3), (1, 2)]
    left = np.array([[0.3 + 0.1j], [0.7 + 0.2j], [0.7 - 0.2j], [0.3 - 0.1j]])
    m = PoleResidueModel(*canonicalize_terms(poles, left, np.ones((4, 1))))
    assert realify_check(m, tol=0.0)
    assert m.poles == pytest.approx([-1 + 1j, -1 - 1j, -1 + 2j, -1 - 2j], abs=1e-15)
    assert m.left[:, 0] * m.right[:, 0] == pytest.approx(left[[2, 1, 0, 3], 0], rel=1e-15)


def test_run_view_shares_the_terms_and_carries_a_fresh_memo():
    g = random_pr(np.random.default_rng(5), 4)
    assert g.with_memo() is g and g.memo is None
    hp = payload_model(g, 30)
    a, b = hp.with_memo(), hp.with_memo()
    assert hp.memo is None and a.memo is not None and b.memo is not None
    assert a.memo is not b.memo
    for view in (a, b):
        assert view.poles is hp.poles and view.left is hp.left
        assert view.hp.dps == hp.hp.dps
        assert all(getattr(view.hp, name) is getattr(hp.hp, name)
                   for name in ("poles", "left", "right"))
