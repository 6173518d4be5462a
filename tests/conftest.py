"""Shared fixtures, seeded model generators, and frozen reference values."""

import mpmath
import numpy as np
import pytest

from delayh2 import (
    DelayBlock,
    DelayedModel,
    HighPrecisionTerms,
    IrkaConfig,
    PoleResidueModel,
    StateSpaceModel,
    build_bench_model,
    build_gtilde,
    irka_reduce,
)

# Documented reference operating point of the N=20 cascade benchmark
# (delayed SISO reduction to order 2, input delay only), as reported to
# five significant digits. The residue is anti-paired: the +Im pole
# carries the -Im residue. This is the published iterate, the IRKA core at
# REF_TAU, and not a stationary point (its delay defect is
# REF_DELAY_DEFECT); the optimum of the same problem is STAT_* below.
REF_TAU = 8.7179
REF_POLE = complex(-2.0320e-1, 2.0700e-1)
REF_RESIDUE = complex(1.5713e-3, -1.8691e-1)
REF_INTERP = complex(2.3567e-1, -2.3614e-1)
# Reported derivative value at -lambda_1; the printed pair equals minus
# the true d/ds transfer derivative (sign convention of the source).
REF_DERIV_PRINTED = complex(5.6466e-1, 1.1465)
REF_DELAY_DEFECT = 9.7284e-5

# Certified stationary point of the same benchmark problem: solution of
# the full first-order system by a 40-digit Newton iteration (residual
# 6.5e-31), frozen here as ground truth for convergence tests.
STAT_TAU = 8.62405040768
STAT_POLE = complex(-0.199972961339, 0.206362187035)
STAT_RESIDUE = complex(0.0, -0.185790215724)

# ||G||^2 of the N=20 benchmark, computed two independent ways at 50
# digits (pole/residue formula and product-form quadrature); exact to
# the last float64 bit.
BENCH_NORM_SQ = 0.09062501309486957


def make_siso(poles, residues):
    """SISO pole/residue model with unit right factors."""
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    return PoleResidueModel(poles, residues.reshape(-1, 1),
                            np.ones((poles.size, 1), dtype=complex))


def lag_cascade(rng, ny=1, nu=1, n=5):
    """Float model whose channel (m, l) is a unit-gain cascade of n real lags.

    The lags of channel c = m * nu + l are geomspace(0.8, 2) * 3^c, each
    jittered by U(0.97, 1.03), so the bands stay disjoint. The responses
    rise late, so the optimal delays of a low-order fit are positive.
    """
    poles, left, right = [], [], []
    for c in range(ny * nu):
        m, l = divmod(c, nu)
        a = 3.0 ** c * np.geomspace(0.8, 2.0, n) * rng.uniform(0.97, 1.03, n)
        for k in range(n):
            poles.append(-a[k])
            left.append(np.eye(ny)[m] * np.prod(a) / np.prod(np.delete(a, k) - a[k]))
            right.append(np.eye(nu)[l])
    return PoleResidueModel(np.array(poles, dtype=complex),
                            np.array(left, dtype=complex),
                            np.array(right, dtype=complex))


def random_pr(rng, order, ny=1, nu=1, *, normalize=True):
    """Random stable conjugate-closed pole/residue model.

    Poles are kept pairwise separated so finite-difference perturbations
    can never collide with the RepeatedPole guard.
    """
    n_pairs = int(rng.integers(0, order // 2 + 1))
    n_real = order - 2 * n_pairs
    for _ in range(200):
        re = rng.uniform(-2.0, -0.3, size=n_pairs + n_real)
        im = rng.uniform(0.4, 2.5, size=n_pairs)
        poles = np.concatenate([
            re[:n_pairs] + 1j * im, re[:n_pairs] - 1j * im,
            re[n_pairs:] + 0j,
        ])
        d = np.abs(poles[:, None] - poles[None, :])
        if np.min(d + np.eye(order)) > 5e-2:
            break
    else:
        raise RuntimeError("could not separate poles")

    def block(width):
        z = rng.normal(size=(n_pairs, width)) + 1j * rng.normal(size=(n_pairs, width))
        r = rng.normal(size=(n_real, width)) + 0j
        return np.concatenate([z, np.conj(z), r], axis=0)

    left = block(ny)
    right = block(nu)
    if normalize:
        import oracles
        s2 = oracles.h2_norm_sq_pr(poles, left, right)
        if s2 > 1e-12:
            left = left / np.sqrt(s2)
    return PoleResidueModel(poles, left, right)


def payload_model(g, dps):
    """``g`` with every coefficient divided by 3 in a ``dps``-digit payload,
    so the payload is not binary64; conjugate closure is kept exactly."""
    with mpmath.workdps(dps):
        third = lambda v: mpmath.mpc(v) / 3
        rows = lambda a: tuple(tuple(third(v) for v in row) for row in a)
        hp = HighPrecisionTerms(tuple(third(p) for p in g.poles),
                                rows(g.left), rows(g.right), dps)
    rounded = lambda a: np.array([[complex(v) for v in row] for row in a])
    return PoleResidueModel(np.array([complex(p) for p in hp.poles]),
                            rounded(hp.left), rounded(hp.right), hp=hp)


def corpus_model(rng, n, ny=1, nu=1):
    """Float model of n/2 conjugate pole pairs spread over 2.5 decades.

    Re = -logspace(-1, 1.5, n/2) * U(0.9, 1.1), Im = U(0.1, 30), and the
    residue rows are complex normal: a model beyond the benchmark (larger N,
    MIMO, lightly damped poles) on which to check what ``converged`` claims.
    """
    half = n // 2
    p = -np.logspace(-1.0, 1.5, half) * rng.uniform(0.9, 1.1, half) \
        + 1j * rng.uniform(0.1, 30.0, half)

    def rows(width):
        return rng.normal(size=(half, width)) + 1j * rng.normal(size=(half, width))

    left, right = rows(ny), rows(nu)
    return PoleResidueModel(np.concatenate([p, p.conj()]),
                            np.concatenate([left, left.conj()]),
                            np.concatenate([right, right.conj()]))


def random_delayed(rng, core, tau_hi=2.0, p_active=0.75):
    """Wrap a core with random channel delays behind random masks."""
    def blk(k):
        mask = rng.random(k) < p_active
        d = np.where(mask, rng.uniform(0.0, tau_hi, size=k), 0.0)
        return DelayBlock(tuple(d), tuple(bool(b) for b in mask))
    return DelayedModel(core, blk(core.nu), blk(core.ny))


def random_ss(rng, order, ny=1, nu=1):
    """Random stable state-space model with a well-conditioned E."""
    for _ in range(50):
        A0 = rng.normal(size=(order, order))
        shift = np.max(np.linalg.eigvals(A0).real) + 0.3 + rng.uniform(0.0, 0.5)
        A = A0 - shift * np.eye(order)
        E = np.eye(order) + 0.15 * rng.normal(size=(order, order))
        if np.linalg.cond(E) > 100.0:
            continue
        B = rng.normal(size=(order, nu))
        C = rng.normal(size=(ny, order))
        try:
            return StateSpaceModel(E, A, B, C)
        except Exception:
            continue
    raise RuntimeError("could not draw a valid state-space model")


@pytest.fixture(scope="session")
def corpus():
    """The seeded corpus: N=50 (1x1), then N=200 (2x2), from default_rng(1)."""
    rng = np.random.default_rng(1)
    return {50: corpus_model(rng, 50), 200: corpus_model(rng, 200, ny=2, nu=2)}


@pytest.fixture(scope="session")
def bench20():
    return build_bench_model(20)


@pytest.fixture(scope="session")
def ref_core(bench20):
    """Order-2 IRKA core of the surrogate at the reference delay."""
    gt = build_gtilde(bench20, DelayBlock((REF_TAU,), (True,)),
                      DelayBlock.zeros(1))
    res = irka_reduce(gt, IrkaConfig(order=2))
    assert res.converged
    return res.model
