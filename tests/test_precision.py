"""The precision backend: one body per term sum, in float64 and in mpmath.

A float model and the same model carrying its exact extended-precision
payload must give the same numbers to near float64 rounding on a
well-conditioned MIMO model, through every sum that runs in the payload's
precision.
"""

import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

import delayh2
from conftest import random_pr
from delayh2 import (
    DelayBlock,
    DelayedModel,
    HighPrecisionTerms,
    IrkaConfig,
    PoleResidueModel,
    build_gtilde,
    eval_transfer,
    eval_transfer_derivative,
    impulse_response,
    irka_reduce,
)
from delayh2.delayopt import _Objective
from delayh2.h2 import _cross_eval

PARITY_RTOL = 1e-13
TAU = (0.7, 1.9, 0.0)
GAM = (0.3, 2.2)


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def mimo_pair():
    """(float model, same model with its exact 30-digit payload), 2x3, N=12."""
    rng = np.random.default_rng(7)
    re_ = -np.logspace(-1, 1, 6) * rng.uniform(0.9, 1.1, 6)
    im_ = rng.uniform(0.1, 5.0, 6)
    left = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    right = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    fp = PoleResidueModel(np.concatenate([re_ + 1j * im_, re_ - 1j * im_]),
                          np.concatenate([left, left.conj()]),
                          np.concatenate([right, right.conj()]))
    # binary64 -> mpc is exact at any precision of at least 53 bits
    exact = lambda rows: tuple(tuple(mpmath.mpc(v) for v in row) for row in rows)
    hp = HighPrecisionTerms(tuple(mpmath.mpc(p) for p in fp.poles),
                            exact(fp.left), exact(fp.right), 30)
    return fp, PoleResidueModel(fp.poles, fp.left, fp.right, hp=hp)


def test_parity_transfer(mimo_pair):
    fp, hp = mimo_pair
    for s in (0.0, 0.3 + 1.1j, 2.0j, 4.0 - 0.5j):
        assert _rel(eval_transfer(hp, s), eval_transfer(fp, s)) < PARITY_RTOL
        assert _rel(eval_transfer_derivative(hp, s),
                    eval_transfer_derivative(fp, s)) < PARITY_RTOL


def test_parity_cross_kernel(mimo_pair):
    fp, hp = mimo_pair
    h = random_pr(np.random.default_rng(3), 4, ny=2, nu=3)
    want = _cross_eval(fp, h, np.array(TAU), np.array(GAM), order=2)
    for order in (0, 1, 2):
        got = _cross_eval(hp, h, np.array(TAU), np.array(GAM), order=order)
        for k, (a, b) in enumerate(zip(got, want)):
            if k > 2 * order:
                assert a is None
            else:
                assert _rel(a, b) < PARITY_RTOL


def test_parity_gtilde_and_delayed_impulse(mimo_pair):
    fp, hp = mimo_pair
    din, dout = DelayBlock(TAU), DelayBlock(GAM)
    g_hp, g_fp = build_gtilde(hp, din, dout), build_gtilde(fp, din, dout)
    assert g_hp.hp is not None and g_hp.hp.dps == 30 and g_fp.hp is None
    assert _rel(g_hp.left, g_fp.left) < PARITY_RTOL
    assert _rel(g_hp.right, g_fp.right) < PARITY_RTOL
    t = np.linspace(0.0, 8.0, 41)
    assert _rel(impulse_response(DelayedModel(hp, din, dout), t),
                impulse_response(DelayedModel(fp, din, dout), t)) < PARITY_RTOL


def test_parity_delay_objective(mimo_pair):
    fp, hp = mimo_pair
    h = random_pr(np.random.default_rng(3), 4, ny=2, nu=3)
    act_in, act_out = np.array([0, 1]), np.array([0, 1])
    x = np.array([TAU[0], TAU[1], GAM[0], GAM[1]])
    got = _Objective(hp, h, act_in, act_out).value_grad_hess(x)
    want = _Objective(fp, h, act_in, act_out).value_grad_hess(x)
    for a, b in zip(got, want):
        assert _rel(a, b) < PARITY_RTOL


@pytest.mark.slow
def test_parity_irka(mimo_pair):
    fp, hp = mimo_pair
    got = irka_reduce(hp, IrkaConfig(order=4))
    want = irka_reduce(fp, IrkaConfig(order=4))
    assert got.converged and want.converged
    assert got.iterations == want.iterations
    for a, b in ((got.model.poles, want.model.poles),
                 (got.model.left, want.model.left),
                 (got.model.right, want.model.right)):
        assert _rel(a, b) < PARITY_RTOL


def test_precision_stays_in_one_module():
    # Only the backend sets a working precision or accumulates in mpmath;
    # serialize (decimal I/O) and bench (payload construction) use mpmath
    # for data, not for sums.
    allowed = {"precision.py", "serialize.py", "bench.py"}
    pattern = re.compile(r"workdps|mpc\(0\)|^\s*(?:import|from)\s+mpmath\b", re.M)
    src = Path(delayh2.__file__).parent
    found = {p.name: pattern.findall(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py")) if p.name not in allowed}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_library_imports_no_scipy():
    # scipy backs the test oracles only; the library runs on numpy and mpmath
    pattern = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.M)
    src = Path(delayh2.__file__).parent
    found = {p.name: pattern.findall(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
