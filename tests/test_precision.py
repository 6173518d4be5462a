"""The precision backend: one body per term sum, in float64 and in
extended precision.

A float model and the same model carrying its exact extended-precision
payload must give the same numbers to near float64 rounding on a
well-conditioned MIMO model, through every sum that runs in the payload's
precision. The extended-precision scalar rounds symmetrically and scales
exactly, and the payload sums run without mpmath arithmetic.
"""

import hashlib
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import delayh2
from conftest import payload_entries, payload_model, random_pr
from delayh2 import (
    DelayBlock,
    DelayedModel,
    HighPrecisionTerms,
    IrkaConfig,
    PoleResidueModel,
    build_bench_model,
    build_gtilde,
    compute_gap,
    conjugate_pairs,
    eval_transfer,
    eval_transfer_derivative,
    h2_norm_sq,
    impulse_response,
    irka_reduce,
)
from delayh2 import delayopt, precision
from delayh2.delayopt import _Objective
from delayh2.h2 import _cross_eval
from delayh2.irka import _project
from delayh2.serialize import save_model

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
    for a, b in zip(got[:3], want[:3]):
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
    # the backend is the only module that uses mpmath: it imports it on first
    # use, for exponentials on raw parts and for printing an entry's exact
    # value, and sets no mpmath precision, so mpmath arithmetic cannot return
    # to the sums. Decimals are parsed and the benchmark is built in integers.
    rules = [(r"^\s*(?:import|from)\s+mpmath\b", {"precision.py"}),
             (r"workdps|workprec|mpc\(0\)", set())]
    src = Path(delayh2.__file__).parent
    found = {}
    for p in sorted(src.glob("*.py")):
        text = p.read_text(encoding="utf-8")
        for pattern, allowed in rules:
            hits = re.findall(pattern, text, re.M)
            if hits and p.name not in allowed:
                found.setdefault(p.name, []).extend(hits)
    assert found == {}


FLOAT_RUN = """
import sys
loaded = lambda: "mpmath" in sys.modules
import numpy as np
import delayh2, delayh2.cli
from delayh2 import DelaySearchConfig, IoDirkaConfig, io_dirka, impulse_response
from delayh2.serialize import load_model
seen = [loaded()]
model, bench, out = sys.argv[1:]
search = DelaySearchConfig(grid_points_per_channel=40, tau_max=3.0)
io_dirka(load_model(model), IoDirkaConfig(order=2, outer_max_iters=4, search=search))
seen.append(loaded())
rc = delayh2.cli.main(["reduce", "--model", model, "--order", "2", "--out", out,
                       "--outer-max", "4", "--grid-points", "40", "--tau-max", "3"])
seen.append(loaded())
g = load_model(bench)
seen.append(loaded())
impulse_response(g, np.array([0.5]))
seen.append(loaded())
print(rc in (0, 2), g.hp is not None, *seen)
"""


def test_float_run_never_imports_mpmath(tmp_path):
    # a fresh interpreter: importing the package, io_dirka and `delayh2
    # reduce` on a float model, and loading the benchmark's payload file leave
    # mpmath unloaded; the first payload exponential loads it, warning-free
    model, bench = tmp_path / "float.json", tmp_path / "bench.json"
    save_model(model, random_pr(np.random.default_rng(3), 4))
    save_model(bench, build_bench_model())
    env = dict(os.environ, PYTHONPATH=str(Path(delayh2.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FLOAT_RUN, str(model), str(bench),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last == ["True", "True", "False", "False", "False", "False", "True"]


def test_library_imports_no_scipy():
    # scipy backs the test oracles only; the library runs on numpy and mpmath
    pattern = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.M)
    src = Path(delayh2.__file__).parent
    found = {p.name: pattern.findall(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# ---------------------------------------------------------------------------
# the extended-precision scalar

OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _bits(z):
    return (z.re, z.im, z.exp)


def _operands(rng, count):
    """Seeded working-width scalars: signed parts, real ones among them."""
    bits = precision.working_bits(50)
    out = []
    for k in range(count):
        re, im = (int(rng.integers(-2 ** 62, 2 ** 62)) << int(rng.integers(0, 110))
                  for _ in range(2))
        if k % 4 == 0:
            im = 0
        out.append(precision._round(re, im, int(rng.integers(-300, 300)) - bits))
    return out


@pytest.mark.parametrize("op", OPS, ids=["add", "sub", "mul", "div"])
def test_scalar_commutes_with_conjugation(op):
    # truncation toward zero is symmetric in sign, so conjugating (or
    # negating) the operands conjugates (negates) the result exactly; floor
    # rounding breaks this
    rng = np.random.default_rng(5)
    linear = op in (operator.add, operator.sub)
    with precision.Backend(50).context():
        xs = _operands(rng, 40)
        for a, b in zip(xs, xs[::-1]):
            assert _bits(op(a, b).conjugate()) == _bits(op(a.conjugate(), b.conjugate()))
            assert _bits(-op(a, b)) == _bits(op(-a, -b) if linear else op(-a, b))


@pytest.mark.parametrize("op", OPS, ids=["add", "sub", "mul", "div"])
def test_scalar_is_accurate_to_the_working_width(op):
    rng = np.random.default_rng(6)
    bk = precision.Backend(50)
    with bk.context():
        xs = _operands(rng, 40)
        got = [op(a, b) for a, b in zip(xs, xs[::-1])]
    with mpmath.workprec(1000):
        exact = precision.to_mpc
        for a, b, z in zip(xs, xs[::-1], got):
            want = op(exact(a), exact(b))
            tol = mpmath.ldexp(abs(want), 2 - precision.working_bits(50))
            if op in (operator.add, operator.sub):
                # a sum is exact to the larger addend's width
                tol = max(tol, mpmath.ldexp(max(abs(exact(a)), abs(exact(b))),
                                            2 - precision.working_bits(50)))
            assert abs(exact(z) - want) <= tol


@pytest.mark.parametrize("mixed", [
    lambda x: x + 1.5, lambda x: 1.5 + x, lambda x: x - 1j, lambda x: 2 * x,
    lambda x: x / 2.0, lambda x: 1.0 / x, lambda x: x * mpmath.mpf(2),
], ids=["x+1.5", "1.5+x", "x-1j", "2*x", "x/2.0", "1.0/x", "x*mpf"])
def test_scalar_takes_only_its_own_operands(mixed):
    # binary64 and mpmath numbers enter only through the exact conversions
    # (Backend.lift, payload_terms, the transfer kernel's points)
    with precision.Backend(50).context():
        x = _operands(np.random.default_rng(8), 1)[0]
        with pytest.raises(TypeError):
            mixed(x)


def test_scalar_sum_starts_from_int_zero():
    # sum() starts from the int 0, the one non-XComplex operand: adding it
    # returns the other operand, so the sum is the left-to-right fold
    with precision.Backend(50).context():
        x, y, z = _operands(np.random.default_rng(9), 3)
        assert _bits(sum([x, y, z])) == _bits((x + y) + z)


def test_scalar_rounds_only_inside_a_backend_context():
    # the working width has one source, Backend.context: outside every
    # context a rounding operation raises instead of running at a default
    with precision.Backend(50).context():
        x, y = _operands(np.random.default_rng(10), 2)
    assert precision._bits is None
    for op in OPS:
        with pytest.raises(TypeError):
            op(x, y)
    with pytest.raises(TypeError):
        precision.Backend(50).exp(np.array([x], dtype=object))


def test_payload_conversion_keeps_both_parts():
    # each part keeps all of its bits, however far apart the two lie: here
    # 1e-30/3 + i/7 at 50 digits, parts about 2^99 apart
    with mpmath.workdps(50):
        v = mpmath.mpc(mpmath.mpf("1e-30") / 3, mpmath.mpf(1) / 7)
    terms = precision.payload_terms([v], [[v]], [[-v]])
    assert [precision.to_mpc(a.flat[0]) for a in terms] == [v, v, -v]
    hp = HighPrecisionTerms([v], [[v]], [[v]], 50)
    assert payload_entries(hp) == ([v], [[v]], [[v]])


def test_conjugate_closure_compares_values():
    # a binary64 entry converts with a 53-bit mantissa and an mpmath one
    # with an odd mantissa: the same values in mixed forms still pair up
    poles = [complex(-1, 2), mpmath.mpc(-1, -2)]
    left = [[1 + 1j], [mpmath.mpc(1, -1)]]
    assert HighPrecisionTerms(poles, left, [[1.0], [1.0]], 30).conjugate_closed
    # one bit off the conjugate, 150 binades down, does not
    with mpmath.workprec(200):
        off = mpmath.mpc(-1, -2) - mpmath.mpc(0, mpmath.mpf(2) ** -150)
    assert not HighPrecisionTerms([poles[0], off], left, [[1.0], [1.0]],
                                  30).conjugate_closed


def test_integer_entries_convert_exactly():
    hp = HighPrecisionTerms([-1, np.int64(-3)], [[1], [2 ** 80]], [[np.int32(-5)], [0]], 30)
    parts = [(z.re, z.im, z.exp) for a in (hp.poles, hp.left, hp.right) for z in a.flat]
    assert parts == [(-1, 0, 0), (-3, 0, 0), (1, 0, 0), (2 ** 80, 0, 0),
                     (-5, 0, 0), (0, 0, 0)]
    assert hp.conjugate_closed
    for flag in (True, np.True_):
        with pytest.raises(TypeError, match="no exact XComplex copy"):
            HighPrecisionTerms([-1], [[1]], [[flag]], 30)


def test_lift_keeps_both_parts():
    z = complex(1.0, 2.0 ** -200)
    lifted = precision.Backend(50).lift(np.array([z]))[0]
    assert precision.to_mpc(lifted) == mpmath.mpc(z)
    assert complex(lifted) == z


@pytest.mark.parametrize("dps", [-3, 3, 16, 2.5, True])
def test_payload_precision_is_an_int_of_at_least_17_digits(dps):
    # the rule a model file's "precision" follows holds for the API too
    with pytest.raises(ValueError, match="at least 17 digits"):
        HighPrecisionTerms([mpmath.mpc(-1)], [[mpmath.mpc(1)]], [[mpmath.mpc(1)]], dps)


# ---------------------------------------------------------------------------
# the double-double kernel of the payload grid screen


def _dd_operands(rng, n):
    """Normalised real double-doubles over 60 binades, both signs."""
    hi = rng.standard_normal(n) * 2.0 ** rng.integers(-30, 30, n)
    lo = hi * rng.uniform(-1.0, 1.0, n) * 2.0 ** -53
    s = hi + lo
    return s, lo - (s - hi)


def test_double_double_operations_meet_their_bounds():
    # against exact rationals: a sum errs by at most DD_UNIT (|a| + |b|),
    # also under cancellation, a real product by 2 DD_UNIT |ab| and a
    # complex one by 4 DD_UNIT |x| |y|
    from fractions import Fraction
    rng = np.random.default_rng(12)
    n = 600
    a, b, c, d = (_dd_operands(rng, n) for _ in range(4))
    near = rng.random(n) < 0.3   # b close to -a: heavy cancellation
    b = (np.where(near, -a[0], b[0]), np.where(near, -a[1] * 0.5, b[1]))
    exact = lambda x, i: Fraction(x[0][i]) + Fraction(x[1][i])
    s = precision.dd_add(a, b)
    p = precision._dd_mul(a, b)
    x, y = (a, b), (c, d)
    xy = precision._cdd_mul(x, y)
    u = Fraction(precision.DD_UNIT)
    for i in range(n):
        ea, eb, ec, ed = (exact(v, i) for v in (a, b, c, d))
        assert abs(exact(s, i) - (ea + eb)) <= u * (abs(ea) + abs(eb))
        assert abs(exact(p, i) - ea * eb) <= 2 * u * abs(ea * eb)
        err2 = (exact(xy[0], i) - (ea * ec - eb * ed)) ** 2 \
            + (exact(xy[1], i) - (ea * ed + eb * ec)) ** 2
        assert err2 <= (4 * u) ** 2 * (ea ** 2 + eb ** 2) * (ec ** 2 + ed ** 2)


def test_path_lattice_blocks_give_the_same_sums(monkeypatch):
    # the full-size product runs over blocks of w-powers; any block size
    # gives the same lattice, bit for bit
    g = payload_model(random_pr(np.random.default_rng(13), 6, ny=2, nu=2), 30)
    obj = _Objective(g, random_pr(np.random.default_rng(14), 2, ny=2, nu=2),
                     np.array([0, 1]), np.array([0, 1]))
    coef = obj.k.reshape(obj.mu.size, -1)
    want = obj.bk.path_lattice(obj.mu, coef, 0.05, 157, 1e-16)
    for block in (1, 100, 10 ** 6):
        monkeypatch.setattr(precision, "DD_BLOCK", block)
        got = obj.bk.path_lattice(obj.mu, coef, 0.05, 157, 1e-16)
        assert all(np.array_equal(u, v) for u, v in zip(got[:2], want[:2]))
        assert got[2] == want[2]


@pytest.mark.parametrize("payload", [False, True], ids=["float", "payload"])
def test_path_lattice_bound_is_infinite_past_its_offset_range(payload):
    # the stated bound holds while max|mu| offset < ln 2; past that it is
    # infinite (a huge offset raised OverflowError), the tables unchanged
    g = random_pr(np.random.default_rng(13), 6, ny=2, nu=2)
    if payload:
        g = payload_model(g, 30)
    obj = _Objective(g, random_pr(np.random.default_rng(14), 2, ny=2, nu=2),
                     np.array([0, 1]), np.array([0, 1]))
    coef = obj.k.reshape(obj.mu.size, -1)
    edge = np.log(2.0) / float(np.max(np.abs(obj.bk.to_complex(obj.mu))))
    small = obj.bk.path_lattice(obj.mu, coef, 0.05, 157, 1e-16)
    for offset, finite in ((0.99 * edge, True), (1.01 * edge, False), (1e300, False)):
        got = obj.bk.path_lattice(obj.mu, coef, 0.05, 157, offset)
        assert all(np.array_equal(u, v) for u, v in zip(got[:2], small[:2]))
        assert np.isfinite(got[2]) == finite and got[2] >= small[2]


@pytest.mark.parametrize("spacing", [0.05, 3.0 / 399, 2.0 ** 995, 1e307 / 399, 2.0 ** 1000],
                         ids=["0.05", "3/399", "2^995", "1e307/399", "2^1000"])
def test_lattice_points_round_each_offset_once(spacing):
    # each offset x - i spacing is the exact difference rounded once, also
    # from a spacing of 2^996 up, where Dekker's split of the spacing
    # overflowed and every offset was NaN
    rng = np.random.default_rng(15)
    x = np.linspace(0.0, 300 * spacing, 301) * (1.0 + 1e-15 * rng.standard_normal(301))
    x[0] = 0.0
    idx, off = precision.lattice_points(x, spacing)
    assert idx.tolist() == np.rint(x / spacing).astype(int).tolist()
    assert off.tolist() == [float(Fraction(v) - i * Fraction(spacing))
                            for v, i in zip(x.tolist(), idx.tolist())]


def _scaled(g, k):
    """``g`` with its left residues times the exact power 2^k."""
    hp = None
    if g.hp is not None:
        shift = lambda v: mpmath.mpc(mpmath.ldexp(v.real, k), mpmath.ldexp(v.imag, k))
        with mpmath.workdps(g.hp.dps):   # mpc() rounds to the context
            left = [list(map(shift, row)) for row in payload_entries(g.hp)[1]]
        hp = HighPrecisionTerms(g.hp.poles, left, g.hp.right, g.hp.dps)
    return PoleResidueModel(g.poles, g.left * 2.0 ** k, g.right, hp=hp)


def test_power_of_two_scaling_is_exact():
    # every number carries its own exponent, so scaling the residues by
    # 2^-70 scales every payload sum by exactly that power (a design with
    # one fixed absolute scale returns a cross kernel of exactly 0 here)
    g = build_bench_model()
    h = random_pr(np.random.default_rng(5), 2)
    gs, hs = _scaled(g, -70), _scaled(h, -70)
    tau, gam = np.array([1.3]), np.array([0.4])
    for order in (0, 1, 2):
        for got, want in zip(_cross_eval(gs, hs, tau, gam, order),
                             _cross_eval(g, h, tau, gam, order)):
            if want is None:
                assert got is None
            else:
                assert np.all(want != 0)
                assert np.array_equal(got, np.asarray(want) * 2.0 ** -140)
    assert h2_norm_sq(gs) == h2_norm_sq(g) * 2.0 ** -140 != 0.0
    shifts = np.array([0.2 + 0.2j, 0.2 - 0.2j, 0.7])
    bdirs = np.array([[1.0 + 0.5j], [1.0 - 0.5j], [0.3]])
    cdirs = np.array([[0.4 - 1.0j], [0.4 + 1.0j], [-0.8]])
    pencil = lambda m: _project(m, shifts, bdirs, cdirs, conjugate_pairs(-shifts))
    for got, want in zip(pencil(gs), pencil(g)):
        assert np.array_equal(got, want * 2.0 ** -70)


def test_payload_sums_do_no_mpmath_arithmetic(monkeypatch):
    # mpmath computes exponentials on raw parts; the sums and the surrogate's
    # payload run on the backend's own scalar
    g = build_bench_model()
    h = random_pr(np.random.default_rng(5), 2)
    shifts = np.array([0.2 + 0.2j, 0.2 - 0.2j, 0.7])

    def refuse(*args):
        raise AssertionError("mpmath arithmetic in a payload sum")

    for cls in (mpmath.mpc, mpmath.mpf):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
            monkeypatch.setattr(cls, name, refuse)
    _project(g, shifts, np.ones((3, 1)), np.ones((3, 1)), conjugate_pairs(-shifts))
    _Objective(g, h, np.array([0]), np.array([], dtype=int)).value_grad_hess(np.array([1.3]))
    hd = DelayedModel(h, DelayBlock((1.3,)), DelayBlock((0.0,), (False,)))
    compute_gap(g, hd, h2_norm_sq(g))
    build_gtilde(g, DelayBlock((1.3,)), DelayBlock((0.4,)))


def test_real_exponential_is_mpmaths_complex_one():
    # a real argument goes straight to mpmath's real exponential, the path
    # its complex exponential takes for a zero imaginary part: the same
    # bits at every sign and size, zero included
    lib = mpmath.libmp
    with precision.Backend(50).context():
        for x, d in ((-1.7, 0.3), (-1.0, 0.0), (2.5, 1e-30), (-12.25, 57.0), (3.0, -1.1)):
            z = precision._coerce(x) * precision._coerce(d)
            got = precision._xc_exp(np.array([z], dtype=object))[0]
            re, im = lib.mpc_exp((lib.from_man_exp(z.re, z.exp), lib.fzero), precision._bits)
            want = precision._from_parts(*precision._mpf_parts(re), *precision._mpf_parts(im))
            want = precision._round(want.re, want.im, want.exp)
            assert (got.re, got.im, got.exp) == (want.re, want.im, want.exp)


def test_term_memo_keeps_its_newest_entries(monkeypatch):
    # at most MEMO_ENTRIES entries, the oldest dropped first; keys hold the
    # working width
    monkeypatch.setattr(precision, "MEMO_ENTRIES", 2)
    memo = precision.TermMemo()
    made = []
    with precision.Backend(50).context():
        for key in (1, 2, 1, 3, 1):
            assert memo.get((key,), lambda: made.append(key) or key) == key
    assert made == [1, 2, 3, 1]
    assert list(memo.entries) == [(precision.working_bits(50), 3),
                                  (precision.working_bits(50), 1)]


def test_memoized_exponentials_and_lattices_are_the_formed_ones():
    # a memo's exponential columns and lattice tables are bit for bit those
    # formed without it, on the first call and on a repeat
    g = payload_model(random_pr(np.random.default_rng(13), 6, ny=2, nu=2), 30)
    obj = _Objective(g, random_pr(np.random.default_rng(14), 2, ny=2, nu=2),
                     np.array([0, 1]), np.array([0, 1]))
    coef = obj.k.reshape(obj.mu.size, -1)
    memo = precision.TermMemo()
    delays = np.array([0.7, 0.0, 1.9, 0.7])
    with obj.bk.context():
        want = obj.bk.delay_exp(obj.mu, delays)
        for _ in range(2):
            got = obj.bk.delay_exp(obj.mu, delays, memo)
            assert [(v.re, v.im, v.exp) for v in got.flat] \
                == [(v.re, v.im, v.exp) for v in want.flat]
    assert len(memo.entries) == 3
    lattice = obj.bk.path_lattice(obj.mu, coef, 0.05, 157, 1e-16)
    for _ in range(2):
        got = obj.bk.path_lattice(obj.mu, coef, 0.05, 157, 1e-16, memo)
        assert all(np.array_equal(u, v) for u, v in zip(got[:2], lattice[:2]))
        assert got[2] == lattice[2]
    assert len(memo.entries) == 4


@pytest.mark.parametrize("payload", [False, True], ids=["float", "payload"])
def test_objective_keeps_no_state_per_point(monkeypatch, payload):
    # a used objective answers at x bit for bit as a fresh one does, forming
    # the delayed terms once per evaluation; value_grad_hess's fourth element
    # is the value's rounding bound, 0 on a payload, and its fifth the
    # complex sum whose real part is the value
    rng = np.random.default_rng(91)
    g = random_pr(rng, 6, ny=2, nu=2)
    h = random_pr(rng, 2, ny=2, nu=2)
    if payload:
        g = payload_model(g, 30)
    act_in, act_out = np.array([0, 1]), np.array([1])
    x = np.array([0.7, 1.9, 0.3])
    fresh = _Objective(g, h, act_in, act_out).value_grad_hess(x)
    calls = []
    formed = delayopt._delayed_terms
    monkeypatch.setattr(delayopt, "_delayed_terms",
                        lambda *args: calls.append(args) or formed(*args))
    obj = _Objective(g, h, act_in, act_out)
    for point in (x, x + 0.5, 2.0 * x, x):
        f, grad, hess, bound, total = obj.value_grad_hess(point)
        if point is x:
            assert f == fresh[0] == float(np.real(total)) and total == fresh[4]
            assert np.array_equal(grad, fresh[1]) and np.array_equal(hess, fresh[2])
            assert bound == fresh[3]
    assert len(calls) == 4
    if payload:
        assert bound == 0.0
        return
    tau, gam = obj.full_vectors(x)
    core = formed(obj.bk, obj.mu, obj.k, tau, gam)
    assert bound == obj.round_scale * float(np.sum(np.abs(core)))
    # the same bound from the terms K e^{mu (gamma + tau)} formed directly
    direct = obj.k * np.exp(obj.mu[:, None, None] * (gam[:, None] + tau[None, :]))
    assert bound == pytest.approx(obj.round_scale * float(np.sum(np.abs(direct))), rel=1e-12)


# the bytes save_model writes for this surrogate, unchanged since its payload
# was built in mpmath: the 50 printed digits of the backend's entries are
# those of mpmath's rounding at this delay
GTILDE_SHA256 = "538718c28e2b4d0c4a9a71ba9879a6d76649f37940e61a92ac12af880bf6940b"


def test_surrogate_payload_is_accurate_and_writes_the_same_bytes(tmp_path):
    # Each surrogate entry, l e^{mu gamma} or r e^{mu tau}, is two truncations
    # to the working width b away from its exact value: the exponential's,
    # then the product's (mu times a delay is exact here, both being
    # binary64). Each moves a value by at most sqrt(2) u relative,
    # u = 2^(1 - b); 1.01 covers the O(u^2) terms and the 80-digit oracle.
    g = build_bench_model()
    u = mpmath.mpf(2) ** (1 - precision.working_bits(g.hp.dps))
    mu, g_left, g_right = payload_entries(g.hp)
    tau = (1.3,)
    pinned = build_gtilde(g, DelayBlock(tau), DelayBlock((0.0,), (False,)))
    both = build_gtilde(g, DelayBlock(tau), DelayBlock((0.4,)))
    for gt, gam in ((pinned, (0.0,)), (both, (0.4,))):
        poles, left, right = payload_entries(gt.hp)
        assert poles == mu
        with mpmath.workdps(80):
            for delays, rows, got in ((gam, g_left, left), (tau, g_right, right)):
                for j, m in np.ndindex(len(mu), len(delays)):
                    want = rows[j][m] * mpmath.exp(mu[j] * delays[m])
                    assert abs(got[j][m] - want) <= 1.01 * 2 * mpmath.sqrt(2) * u * abs(want)
    path = tmp_path / "gtilde.json"
    save_model(str(path), pinned)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GTILDE_SHA256
