"""Benchmark model construction against independent closed forms."""

import numpy as np
import pytest

import oracles
from conftest import BENCH_NORM_SQ
from delayh2 import build_bench_model, eval_transfer, h2_norm_sq, impulse_response


def test_bench_poles_are_uniform_grid(bench20):
    assert np.array_equal(bench20.poles, np.linspace(-2.0, -1.0, 20) + 0.0j)
    assert bench20.ny == 1 and bench20.nu == 1


def test_bench_residues_match_closed_form(bench20):
    # psi_k = prod_j mu_j / prod_{j!=k} (mu_k - mu_j), float64 products
    # are good to ~1e-14 relative despite the 1e15 magnitudes
    mu = np.linspace(-2.0, -1.0, 20)
    top = np.prod(mu)
    for k in range(20):
        den = np.prod([mu[k] - mu[j] for j in range(20) if j != k])
        psi = top / den
        got = bench20.left[k, 0] * bench20.right[k, 0]
        assert abs(got - psi) <= 1e-12 * abs(psi)
    assert np.max(np.abs(bench20.left)) > 1e14  # spread forces hp sums


def test_bench_carries_high_precision_payload(bench20):
    assert bench20.hp is not None
    assert bench20.hp.dps == 50
    hp_poles = np.array([complex(p) for p in bench20.hp.poles])
    assert np.array_equal(hp_poles, bench20.poles)


def test_bench_norm_squared_frozen_value(bench20):
    # float64 summation would lose ~all digits here; the hp path must
    # reproduce the frozen extended-precision result exactly
    assert h2_norm_sq(bench20) == BENCH_NORM_SQ


def test_bench_transfer_matches_product_form(bench20):
    rng = np.random.default_rng(5)
    mu = np.linspace(-2.0, -1.0, 20)
    assert abs(eval_transfer(bench20, 0.0)[0, 0] - 1.0) < 1e-12  # unit DC gain
    s = 1j * np.concatenate([rng.uniform(-30.0, 30.0, 40),
                             rng.uniform(-0.5, 0.5, 10)])
    ref = oracles.product_transfer(mu, s)
    got = np.array([eval_transfer(bench20, sk)[0, 0] for sk in s])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-8


def test_bench_impulse_matches_cascade_integration(bench20):
    t = np.linspace(0.0, 50.0, 201)
    A, B, C = oracles.cascade_ss(np.linspace(-2.0, -1.0, 20))
    ref = oracles.rk4_impulse(A, B, C, t, substeps=40)[0, 0, :]
    got = impulse_response(bench20, t)[0, 0, :]
    assert np.max(np.abs(got - ref)) < 1e-6
    assert np.max(np.abs(got)) > 0.1  # response is not trivially tiny


def _parts(x):
    """(signed mantissa, exponent) of a real mpmath number, as stored."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


@pytest.mark.parametrize("order", range(2, 21))
def test_bench_terms_match_the_mpmath_construction(order):
    # the exact-rational residues, rounded once to 50 digits, carry the same
    # bits in the payload and the same binary64 view as residues evaluated
    # at 60 digits in mpmath and then rounded
    mu, stored, floats = oracles.cascade_residues_mpmath(order)
    g = build_bench_model(order)
    as_parts = lambda a: [(z.re, z.im, z.exp) for z in a.flat]
    assert as_parts(g.hp.poles) == [(m, 0, e) for m, e in map(_parts, mu)]
    assert as_parts(g.hp.left) == [(m, 0, e) for m, e in map(_parts, stored)]
    assert as_parts(g.hp.right) == [(1, 0, 0)] * order
    assert np.array_equal(g.poles, np.array([float(v) for v in mu], dtype=complex))
    assert np.array_equal(g.left, np.array(floats, dtype=complex)[:, None])
    assert np.array_equal(g.right, np.ones((order, 1), dtype=complex))
