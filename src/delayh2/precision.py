"""Working precision of the sums over a model's terms.

Every quantity the package computes is a sum over a pole/residue model's
terms: transfer values, the impulse response, the H2 cross kernel and its
delay derivatives, and the projected IRKA pencil. Each is written once as
numpy array code against a :class:`Backend`, which fixes what the arrays
hold (the IRKA pencil alone keeps a separate float64 form, see
:mod:`delayh2.irka`):

* no model in the sum carries a high-precision payload: plain complex128
  arrays, and every operation is the ordinary float64 one;
* otherwise: numpy object arrays of :class:`XComplex`, a complex number
  with a Gaussian-integer mantissa and one shared binary exponent, whose
  every sum, product and quotient is truncated toward zero to
  :func:`working_bits` of the highest payload precision. Payload terms are
  converted once per payload (:func:`payload_terms`), and every binary64
  input (evaluation points, times, delays, directions, float models) is
  lifted exactly. ``@``, ``einsum`` and broadcasting then run the same
  expressions in Python-int arithmetic, inside :meth:`Backend.context`,
  which sets the working width the way ``mpmath.workdps`` sets mpmath's
  precision.

mpmath computes only the exponentials (on raw mantissa/exponent tuples)
and builds payloads (:func:`delay_scaled_payload`), whose stored decimal
digits must not depend on the arithmetic of the sums.

Results leave a backend as complex128 through :meth:`Backend.to_complex`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, mpc_exp, mpf_exp

# bits kept beyond the payload's decimal precision; truncation loses up to
# one unit in the last kept bit where round-to-nearest loses half
GUARD_BITS = 8
LOG2_10 = math.log2(10.0)

# mantissa width of XComplex results, and the exponent gap past which the
# smaller of two such addends lies entirely below the larger one's last
# kept bit; both set by Backend.context
_bits = 53 + GUARD_BITS
_reach = 2 * _bits + 4


def working_bits(dps: int) -> int:
    """Mantissa bits of the sums over a ``dps``-digit payload."""
    return math.ceil(dps * LOG2_10) + GUARD_BITS


class XComplex:
    """The complex number (re + i im) 2^exp, with Python-int re and im.

    Arithmetic results are truncated toward zero to the working width, the
    larger of |re| and |im| setting it, so rounding is symmetric in sign:
    conjugation and negation commute with every operation, exactly. Python
    numbers and mpmath numbers mix in as exact operands.
    """

    __slots__ = ("re", "im", "exp")

    def __add__(a, b):
        if b.__class__ is not XComplex:
            if b.__class__ is int and b == 0:
                return a
            b = _coerce(b)
            if b is NotImplemented:
                return NotImplemented
        d = a.exp - b.exp
        if d >= 0:
            if d > _reach:
                return b if not (a.re or a.im) else a
            return _round((a.re << d) + b.re, (a.im << d) + b.im, b.exp)
        if d < -_reach:
            return a if not (b.re or b.im) else b
        return _round(a.re + (b.re << -d), a.im + (b.im << -d), a.exp)

    __radd__ = __add__

    def __sub__(a, b):
        if b.__class__ is not XComplex:
            b = _coerce(b)
            if b is NotImplemented:
                return NotImplemented
        d = a.exp - b.exp
        if d >= 0:
            if d > _reach:
                return -b if not (a.re or a.im) else a
            return _round((a.re << d) - b.re, (a.im << d) - b.im, b.exp)
        if d < -_reach:
            return a if not (b.re or b.im) else -b
        return _round(a.re - (b.re << -d), a.im - (b.im << -d), a.exp)

    def __rsub__(a, b):
        return (-a) + b

    def __mul__(a, b):
        if b.__class__ is not XComplex:
            b = _coerce(b)
            if b is NotImplemented:
                return NotImplemented
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        if ai:
            if bi:
                return _round(ar * br - ai * bi, ar * bi + ai * br, a.exp + b.exp)
            return _round(ar * br, ai * br, a.exp + b.exp)
        return _round(ar * br, ar * bi, a.exp + b.exp)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if b.__class__ is not XComplex:
            b = _coerce(b)
            if b is NotImplemented:
                return NotImplemented
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        if bi:
            # a conj(b) / |b|^2
            ar, ai = ar * br + ai * bi, ai * br - ar * bi
            den = br * br + bi * bi
        elif br < 0:
            ar, ai, den = -ar, -ai, -br
        else:
            den = br
        if not den:
            raise ZeroDivisionError("XComplex division by zero")
        # scale so each quotient carries more than the working width; the
        # integer quotients truncate toward zero, and _round then truncates
        # the exact quotient once more, which composes to one truncation
        k = max(0, _bits + 2 + den.bit_length()
                - max(ar.bit_length(), ai.bit_length()))
        qr = (ar << k) // den if ar >= 0 else -((-ar << k) // den)
        qi = (ai << k) // den if ai >= 0 else -((-ai << k) // den)
        return _round(qr, qi, a.exp - b.exp - k)

    def __rtruediv__(a, b):
        b = _coerce(b)
        return NotImplemented if b is NotImplemented else b / a

    def __pow__(a, n):
        if n.__class__ is not int or n < 0:
            return NotImplemented
        out = _make(1, 0, 0)
        for _ in range(n):
            out = out * a
        return out

    def __neg__(a):
        return _make(-a.re, -a.im, a.exp)

    def __bool__(a):
        return bool(a.re or a.im)

    def conjugate(a):
        return _make(a.re, -a.im, a.exp)

    @property
    def real(a):
        return _make(a.re, 0, a.exp)

    @property
    def imag(a):
        return _make(a.im, 0, a.exp)

    def __complex__(a):
        return complex(_to_float(a.re, a.exp), _to_float(a.im, a.exp))

    def __repr__(a):
        return f"XComplex({a.re}, {a.im}, {a.exp})"


_new = object.__new__


def _make(re: int, im: int, exp: int) -> XComplex:
    z = _new(XComplex)
    z.re = re
    z.im = im
    z.exp = exp
    return z


def _round(re: int, im: int, exp: int) -> XComplex:
    """(re + i im) 2^exp truncated toward zero to the working width."""
    n = re.bit_length()
    m = im.bit_length()
    if m > n:
        n = m
    n -= _bits
    if n > 0:
        re = re >> n if re >= 0 else -(-re >> n)
        im = im >> n if im >= 0 else -(-im >> n)
        exp += n
    z = _new(XComplex)
    z.re = re
    z.im = im
    z.exp = exp
    return z


def _to_float(m: int, e: int) -> float:
    try:
        return math.ldexp(float(m), e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _from_parts(re: int, re_exp: int, im: int, im_exp: int) -> XComplex:
    """Exact sum re 2^re_exp + i im 2^im_exp on the shared exponent."""
    if not im:
        return _round(re, 0, re_exp)
    if not re:
        return _round(0, im, im_exp)
    e = min(re_exp, im_exp)
    return _round(re << (re_exp - e), im << (im_exp - e), e)


def _float_parts(x: float) -> tuple[int, int]:
    m, e = math.frexp(x)
    return int(m * 9007199254740992.0), e - 53   # 2^53


def _mpf_parts(t) -> tuple[int, int]:
    sign, man, exp, _ = t
    return (-man if sign else man), exp


def _coerce(v):
    """Exact XComplex copy of a Python or mpmath number (else NotImplemented)."""
    if isinstance(v, (int, np.integer)):
        return _round(int(v), 0, 0)
    if isinstance(v, (float, np.floating)):
        m, e = _float_parts(float(v))
        return _make(m, 0, e)
    if isinstance(v, (complex, np.complexfloating)):
        return _from_parts(*_float_parts(v.real), *_float_parts(v.imag))
    if hasattr(v, "_mpc_"):
        re, im = v._mpc_
        return _from_parts(*_mpf_parts(re), *_mpf_parts(im))
    if hasattr(v, "_mpf_"):
        m, e = _mpf_parts(v._mpf_)
        return _round(m, 0, e)
    return NotImplemented


def _exp(z: XComplex) -> XComplex:
    """e^z at the working width: mpmath's exponential on the raw parts."""
    x = from_man_exp(z.re, z.exp)
    if not z.im:
        m, e = _mpf_parts(mpf_exp(x, _bits))
        return _round(m, 0, e)
    re, im = mpc_exp((x, from_man_exp(z.im, z.exp)), _bits)
    return _from_parts(*_mpf_parts(re), *_mpf_parts(im))


@contextmanager
def _working(bits: int):
    global _bits, _reach
    saved = _bits, _reach
    _bits, _reach = bits, 2 * bits + 4
    try:
        yield
    finally:
        _bits, _reach = saved


def payload_terms(hp) -> tuple:
    """Read-only XComplex arrays (poles, left, right) of a payload.

    Each number is converted at the payload's own width, which no backend
    over it undercuts, so the arrays do not depend on the working
    precision; a payload keeps them (``HighPrecisionTerms.working_terms``).
    """
    with _working(working_bits(hp.dps)):
        arrays = tuple(_xc(np.array(part, dtype=object))
                       for part in (hp.poles, hp.left, hp.right))
    for a in arrays:
        a.flags.writeable = False
    return arrays


_xc_exp = np.frompyfunc(_exp, 1, 1)
_xc = np.frompyfunc(_coerce, 1, 1)
_mp_exp = np.frompyfunc(mp.exp, 1, 1)
_mp_mpf = np.frompyfunc(mp.mpf, 1, 1)


class Backend:
    """Array arithmetic at one working precision (``dps=None``: float64)."""

    def __init__(self, dps: int | None = None):
        self.dps = dps

    def context(self):
        """Context that every operation on this backend's arrays runs in."""
        return nullcontext() if self.dps is None else _working(working_bits(self.dps))

    def lift(self, x):
        """Exact working-precision copy of binary64 data."""
        x = np.asarray(x)
        if self.dps is None:
            return x
        return _xc(x, out=np.empty(x.shape, dtype=object))

    def terms(self, m):
        """(poles, left, right) of a pole/residue model in working precision.

        A model's payload is authoritative; float models are lifted exactly.
        """
        if self.dps is None:
            return m.poles, m.left, m.right
        if m.hp is None:
            return self.lift(m.poles), self.lift(m.left), self.lift(m.right)
        return m.hp.working_terms

    def exp(self, x):
        return np.exp(x) if self.dps is None else _xc_exp(x)

    def to_complex(self, x):
        """Round working-precision data to complex128."""
        if self.dps is None:
            return x
        return x.astype(complex) if isinstance(x, np.ndarray) else complex(x)


FLOAT = Backend()


def backend_for(*models) -> Backend:
    """The backend of a sum over these models' terms: the highest payload
    precision among them, or float64 when none carries a payload."""
    dps = [m.hp.dps for m in models if m.hp is not None]
    return Backend(max(dps)) if dps else FLOAT


def delay_scaled_payload(hp, tau: np.ndarray, gam: np.ndarray) -> tuple[tuple, tuple]:
    """(left, right) payload rows of ``hp`` scaled by e^{mu_j gamma_m} and
    e^{mu_j tau_l}, as mpmath numbers at the payload precision.

    A payload is data that is stored and written out in decimal, so it is
    built in mpmath, whose rounding fixes those digits; the sums over it
    run on :class:`XComplex` after :meth:`Backend.terms` converts it.
    """
    with mp.workdps(hp.dps):
        mu = np.array(hp.poles, dtype=object)
        left = np.array(hp.left, dtype=object)
        right = np.array(hp.right, dtype=object)
        # e^0 = 1 exactly, so a side without delays keeps its residues
        if np.any(gam):
            left = left * _mp_exp(np.outer(mu, _mp_mpf(gam)))
        if np.any(tau):
            right = right * _mp_exp(np.outer(mu, _mp_mpf(tau)))
    return tuple(map(tuple, left)), tuple(map(tuple, right))
