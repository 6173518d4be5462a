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
  :func:`working_bits` of the highest payload precision. A payload holds
  its terms in this form, and every binary64 input (evaluation points,
  times, delays, directions, float models) is lifted exactly. ``@``,
  ``einsum`` and broadcasting then run the same expressions in Python-int
  arithmetic, inside :meth:`Backend.context`, the one source of the
  working width: outside every context a rounding operation raises.

A payload is stored as XComplex arrays alone: numbers given in another
form are converted once, exactly and so at no width, when it is
constructed (:func:`payload_terms`), its decimal precision follows one
rule (:func:`checked_precision`), and a payload derived from another one
(the delay-advanced surrogate) is built by the same array code as its
float counterpart. An exact rational entry (a model file's decimal, a
benchmark residue) is rounded once, in integers, to the bits mpmath
keeps at the payload's digits (:func:`payload_entry`).

This module is the only one that uses mpmath, and it imports mpmath on
first use (:func:`_mpmath`), so a run on float models never loads it.
mpmath computes the exponentials (on raw mantissa/exponent tuples) and
prints an entry's exact value in decimal (:func:`decimal_pair`); it never
sets or reads a working precision.

Results leave a backend as complex128 through :meth:`Backend.to_complex`.

Transfer data, G(s) and -G'(s), is the one sum written per backend
(:meth:`Backend.resolvent_sums`): array code in float64, and in extended
precision one loop over exact integers, with one truncated reciprocal per
(point, term) and every product and sum exact. XComplex objects per
operation would cost more than the arithmetic there. Its points are
binary64 (IRKA shifts, the certificate's mirrored poles) or XComplex (the
H2 cross kernel's mirrored payload poles).

The delay search's grid screen reads lattice tables with an error bound
(:meth:`Backend.path_lattice`), which a third arithmetic builds on a
payload: double-double numbers (an unevaluated sum hi + lo of two float64
arrays; Dekker, Numer. Math. 18, 1971) built from the error-free TwoSum
and TwoProduct (with Dekker's split), the compensated arithmetic of Ogita,
Rump and Oishi (SISC 26, 2005). They keep about 106 bits in plain numpy
array code, enough to rank a payload's grid cells, where float64 misranks
them by O(1) and :class:`XComplex` would be one Python call per operation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

# bits kept beyond the payload's decimal precision; truncation loses up to
# one unit in the last kept bit where round-to-nearest loses half
GUARD_BITS = 8
LOG2_10 = math.log2(10.0)

# least decimal precision of a payload: the 17 digits that round-trip binary64
MIN_PRECISION = 17

# mpmath, once _mpmath has imported it
_mp = None

# mantissa width of XComplex results, and the exponent gap past which the
# smaller of two such addends lies entirely below the larger one's last
# kept bit; set only inside Backend.context, so that a rounding operation
# outside every context raises TypeError
_bits = _reach = None


def checked_precision(dps) -> int:
    """A payload's decimal digits, ``dps``: an int, not a bool, of at least
    MIN_PRECISION; ValueError otherwise."""
    if isinstance(dps, bool) or not isinstance(dps, int) or dps < MIN_PRECISION:
        raise ValueError(f"{dps!r} is not an integer of at least {MIN_PRECISION} digits")
    return dps


def working_bits(dps: int) -> int:
    """Mantissa bits of the sums over a ``dps``-digit payload."""
    return math.ceil(dps * LOG2_10) + GUARD_BITS


def entry_bits(dps: int) -> int:
    """Mantissa bits of a ``dps``-digit payload entry: mpmath's
    ``dps_to_prec``, the binary precision it works at for ``dps`` digits."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def _mpmath():
    """The mpmath module, imported on the first call and kept in ``_mp``."""
    global _mp
    if _mp is None:
        import mpmath
        _mp = mpmath
    return _mp


class XComplex:
    """The complex number (re + i im) 2^exp, with Python-int re and im.

    Arithmetic results are truncated toward zero to the working width, the
    larger of |re| and |im| setting it, so rounding is symmetric in sign:
    conjugation and negation commute with every operation, exactly. The
    operands are XComplex only (and the int 0 that ``sum()`` starts from):
    binary64 and mpmath numbers enter through the exact conversions of
    :meth:`Backend.lift`, :func:`payload_terms` and :func:`_resolvent_sums`.
    """

    __slots__ = ("re", "im", "exp")

    def __add__(a, b):
        if b.__class__ is not XComplex:
            # only the int 0 that sum() starts from
            return a if b.__class__ is int and b == 0 else NotImplemented
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
            return NotImplemented
        d = a.exp - b.exp
        if d >= 0:
            if d > _reach:
                return -b if not (a.re or a.im) else a
            return _round((a.re << d) - b.re, (a.im << d) - b.im, b.exp)
        if d < -_reach:
            return a if not (b.re or b.im) else -b
        return _round(a.re - (b.re << -d), a.im - (b.im << -d), a.exp)

    def __mul__(a, b):
        if b.__class__ is not XComplex:
            return NotImplemented
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        if ai:
            if bi:
                return _round(ar * br - ai * bi, ar * bi + ai * br, a.exp + b.exp)
            return _round(ar * br, ai * br, a.exp + b.exp)
        return _round(ar * br, ar * bi, a.exp + b.exp)

    def __truediv__(a, b):
        if b.__class__ is not XComplex:
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

    def __neg__(a):
        return _make(-a.re, -a.im, a.exp)

    def __bool__(a):
        return bool(a.re or a.im)

    def conjugate(a):
        return _make(a.re, -a.im, a.exp)

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
    """re 2^re_exp + i im 2^im_exp on the lesser exponent, every bit of both
    parts kept: exact at any width."""
    if not im:
        return _make(re, 0, re_exp)
    if not re:
        return _make(0, im, im_exp)
    e = min(re_exp, im_exp)
    return _make(re << (re_exp - e), im << (im_exp - e), e)


def _float_parts(x: float) -> tuple[int, int]:
    m, e = math.frexp(x)
    return int(m * 9007199254740992.0), e - 53   # 2^53


def _mpf_parts(t) -> tuple[int, int]:
    sign, man, exp, _ = t
    return (-man if sign else man), exp


def _coerce(v):
    """Exact XComplex copy of an integer (not a bool), a binary64 number or
    an mpmath complex, which needs no working width; an XComplex is returned
    as it is."""
    if v.__class__ is XComplex:
        return v
    if isinstance(v, (float, complex, np.floating, np.complexfloating)):
        return _from_parts(*_float_parts(v.real), *_float_parts(v.imag))
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return _make(int(v), 0, 0)
    if hasattr(v, "_mpc_"):
        re, im = v._mpc_
        return _from_parts(*_mpf_parts(re), *_mpf_parts(im))
    raise TypeError(f"no exact XComplex copy of {type(v).__name__}")


def _exp(z: XComplex) -> XComplex:
    """e^z at the working width: mpmath's exponential on the raw parts
    (mpmath is loaded by :func:`_xc_exp`, the one caller). A real z goes
    straight to the real exponential, which is what ``mpc_exp`` runs for a
    zero imaginary part."""
    lib = _mp.libmp
    if not z.im:
        m, e = _mpf_parts(lib.mpf_exp(lib.from_man_exp(z.re, z.exp), _bits))
        return _round(m, 0, e)
    re, im = lib.mpc_exp((lib.from_man_exp(z.re, z.exp), lib.from_man_exp(z.im, z.exp)), _bits)
    z = _from_parts(*_mpf_parts(re), *_mpf_parts(im))
    return _round(z.re, z.im, z.exp)


def _nearest(num: int, den: int, bits: int) -> tuple[int, int]:
    """(m, e) with m 2^e the rational num/den (den != 0) rounded to nearest,
    ties to even, at ``bits`` bits; m is odd, or 0 for a zero quotient."""
    if den < 0:
        num, den = -num, -den
    if not num:
        return 0, 0
    a = abs(num)
    # q = floor(a 2^k / den) has bits + 1 or bits + 2 bits
    k = bits + 1 - a.bit_length() + den.bit_length()
    q, r = divmod(a << k, den) if k >= 0 else divmod(a, den << -k)
    s = q.bit_length() - bits
    half = q >> (s - 1) & 1
    sticky = r or q & ((1 << (s - 1)) - 1)
    q >>= s
    if half and (sticky or q & 1):
        q += 1
    e = s - k
    zeros = (q & -q).bit_length() - 1
    q >>= zeros
    return (-q if num < 0 else q), e + zeros


def payload_entry(re: tuple[int, int], im: tuple[int, int], dps: int) -> XComplex:
    """The entry re[0]/re[1] + i im[0]/im[1] of a ``dps``-digit payload.

    Each exact rational part is rounded once, to nearest with ties to even,
    at :func:`entry_bits` bits: the bits of mpmath's rounding of the same
    rational at ``dps`` digits, found here in integer arithmetic.
    """
    bits = entry_bits(dps)
    return _from_parts(*_nearest(*re, bits), *_nearest(*im, bits))


def payload_terms(poles, left, right) -> tuple:
    """Read-only XComplex arrays (poles, left, right) of a payload.

    Each number that is not XComplex already (an integer, an mpmath or a
    binary64 number) is converted exactly (:func:`_coerce`), so the arrays
    depend on no precision.
    """
    arrays = tuple(_xc(np.array(part, dtype=object)) for part in (poles, left, right))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def to_mpc(z: XComplex):
    """The exact value of ``z`` as an mpmath complex."""
    mp = _mpmath()
    return mp.make_mpc((mp.libmp.from_man_exp(z.re, z.exp), mp.libmp.from_man_exp(z.im, z.exp)))


def decimal_pair(z: XComplex, dps: int) -> list:
    """[re, im] of ``z``, each part's exact value printed to ``dps``
    significant digits by mpmath (trailing zeros stripped)."""
    mp = _mpmath()
    v = to_mpc(z)
    return [mp.nstr(v.real, dps, strip_zeros=True), mp.nstr(v.imag, dps, strip_zeros=True)]


def resolvent_terms(poles: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Integer data of :func:`_resolvent_sums` over XComplex term arrays:
    ((ny, nu), the least exponent of a nonzero psi entry, and per term the
    (re, im, exp) of mu_k with those of each entry of psi_k = l_k r_k^T,
    exact). A payload keeps it (``HighPrecisionTerms.resolvent_terms``)."""
    data = [(mu.re, mu.im, mu.exp, [(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re,
                                      a.exp + b.exp) for a in lv for b in rv])
            for mu, lv, rv in zip(poles, left, right)]
    least = min((e for *_, psi in data for r, i, e in psi if r or i), default=0)
    return (left.shape[1], right.shape[1]), least, data


def _resolvent_sums(s: np.ndarray, terms, derivative: bool = True):
    """(sum_k w_k psi_k, sum_k w_k^2 psi_k), w_k = 1 / (z - mu_k), at each
    binary64 or XComplex point z of ``s``, over :func:`resolvent_terms`
    data; the second sum is None unless ``derivative``.

    Each difference z - mu_k is exact and each reciprocal is truncated
    once, toward zero, to at least the working width; the products and the
    sums over the terms are exact integers on one exponent per sum, and
    each result is truncated once. The two sums share only the
    reciprocals, so the first does not depend on ``derivative``.
    """
    (ny, nu), least, data = terms
    val = np.empty((s.size, ny * nu), dtype=object)
    nder = np.empty_like(val)
    width = _bits + 2
    for i, z in enumerate(s.tolist()):
        z = _coerce(z)
        zr, zi, ze = z.re, z.im, z.exp
        w = []
        low = math.inf
        for mr, mi, me, psi in data:
            if ze > me:
                dr, di, e = (zr << (ze - me)) - mr, (zi << (ze - me)) - mi, me
            else:
                dr, di, e = zr - (mr << (me - ze)), zi - (mi << (me - ze)), ze
            den = dr * dr + di * di
            n, m = dr.bit_length(), di.bit_length()
            k = width + den.bit_length() - (n if n > m else m)
            we = -e - k
            if we < low:
                low = we
            w.append(((dr << k) // den if dr >= 0 else -((-dr << k) // den),
                      -((di << k) // den) if di >= 0 else (-di << k) // den, we, psi))
        sums = [0] * (4 * ny * nu)
        for wr, wi, we, psi in w:
            for j, (pr, pi, pe) in enumerate(psi):
                if pr or pi:
                    sh = we + pe - low - least
                    tr, ti = wr * pr - wi * pi, wr * pi + wi * pr
                    sums[4 * j] += tr << sh
                    sums[4 * j + 1] += ti << sh
                    if derivative:
                        sh += we - low
                        sums[4 * j + 2] += (wr * tr - wi * ti) << sh
                        sums[4 * j + 3] += (wr * ti + wi * tr) << sh
        val[i] = [_round(sums[j], sums[j + 1], low + least) for j in range(0, len(sums), 4)]
        if derivative:
            nder[i] = [_round(sums[j + 2], sums[j + 3], 2 * low + least)
                       for j in range(0, len(sums), 4)]
    return val.reshape(-1, ny, nu), nder.reshape(-1, ny, nu) if derivative else None


def _value(z: XComplex) -> tuple[int, int, int]:
    """(re, im, exp) of z without the trailing zero bits its two parts
    share: one triple per value, whatever the representation (a binary64
    number converts with a 53-bit mantissa, an mpmath one with an odd one)."""
    bits = z.re | z.im
    if not bits:
        return 0, 0, 0
    t = (bits & -bits).bit_length() - 1
    return z.re >> t, z.im >> t, z.exp + t


def payload_closed(hp) -> bool:
    """Whether each real pole of a payload carries real residues and each
    complex term is followed by its exact conjugate term. Conversion to
    XComplex is exact and sign-symmetric, so the values compare exactly."""
    rows = [(p, *l, *r) for p, l, r in zip(hp.poles, hp.left, hp.right)]
    conj = lambda a, b: _value(a) == _value(b.conjugate())
    k = 0
    while k < len(rows):
        if not rows[k][0].im:
            if any(v.im for v in rows[k]):
                return False
            k += 1
        elif k + 1 < len(rows) and all(map(conj, rows[k], rows[k + 1])):
            k += 2
        else:
            return False
    return True


_exp_entries = np.frompyfunc(_exp, 1, 1)
_xc = np.frompyfunc(_coerce, 1, 1)


def _xc_exp(x: np.ndarray) -> np.ndarray:
    """e^x entrywise on an XComplex array. mpmath is loaded first, outside
    the vectorized loop: numpy reports the floating-point flags that its
    import raises as a RuntimeWarning of the loop."""
    _mpmath()
    return _exp_entries(x)


class Backend:
    """Array arithmetic at one working precision (``dps=None``: float64)."""

    def __init__(self, dps: int | None = None):
        self.dps = dps

    @contextmanager
    def context(self):
        """Context that every operation on this backend's arrays runs in: in
        extended precision it sets the working width, the one source of
        XComplex rounding widths."""
        global _bits, _reach
        saved = _bits, _reach
        if self.dps is not None:
            _bits = working_bits(self.dps)
            _reach = 2 * _bits + 4
        try:
            yield
        finally:
            _bits, _reach = saved

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
        return m.hp.poles, m.hp.left, m.hp.right

    def resolvent_sums(self, s, m, derivative: bool = True):
        """(G(s_i), -G'(s_i)) of a pole/residue model at points ``s``
        (binary64, or XComplex in extended precision): sum_k w_ik psi_k
        and sum_k w_ik^2 psi_k with w_ik = 1 / (s_i - mu_k) and
        psi_k = l_k r_k^T, each (n, ny, nu); one reciprocal per
        (point, term). -G' is None unless ``derivative``. In extended
        precision the sums are exact (see :func:`_resolvent_sums`), over
        data a payload keeps."""
        if self.dps is None:
            w = (1.0 / (s[:, None] - m.poles))[:, :, None, None]
            t = w * (m.left[:, :, None] * m.right[:, None, :])
            return t.sum(axis=1), (w * t).sum(axis=1) if derivative else None
        terms = m.hp.resolvent_terms if m.hp is not None else resolvent_terms(*self.terms(m))
        return _resolvent_sums(s, terms, derivative)

    def path_lattice(self, mu, coef, spacing: float, length: int, offset: float,
                     memo: TermMemo | None = None):
        """(table, slope, bound): Re F_p and Re F_p' at i spacing, i < length,
        of F_p(t) = sum_j coef[j, p] e^{mu_j t}, as (P, length) float64
        arrays, for ``mu`` (N,) and ``coef`` (N, P) in this backend's
        precision. ``bound`` is the error, before the table's rounding to
        binary64, of sum_p table[p, i_p] + slope[p, i_p] d_p against
        sum_p Re F_p(i_p spacing + d_p), for any indices and |d_p| <= ``offset``.

        Both are one float64 product of e^{t mu_j} with [coef, mu coef]; in
        extended precision the table is rebuilt in double-double
        (:func:`_path_lattice`). With u = 2^-53, t_max = (length - 1)
        spacing and S, S1, S2 = sum |coef|, |mu coef|, |mu^2 coef| (no term
        exceeds its t = 0 size on stable poles): the argument
        fl(fl(i spacing) mu_j) is off by 2u |mu_j| t_max, and a term's
        products and exponential with a 2N-product real part summed in any
        order (Higham, Accuracy and Stability, 2002, 3.1) add (2N + 16) u.
        So a float64 table errs by (2N + 16) u S + 2u S1 t_max, the slope
        correction by ((2N + 16) S1 + 2 S2 t_max) u offset, and dropping
        the second order of e^{mu d} by S (max|mu| offset)^2 while
        max|mu| offset < ln 2; beyond that ``bound`` is infinite. A ``memo``
        of ``mu`` (:class:`TermMemo`) keeps the double-double power tables of
        mu alone.
        """
        n = coef.shape[0]
        mu_f, coef_f = self.to_complex(mu), self.to_complex(coef)
        dk = mu_f[:, None] * coef_f
        e = np.exp(np.outer(np.arange(length) * spacing, mu_f))
        table, slope = np.split((e @ np.concatenate([coef_f, dk], axis=1)).real.T, 2)
        s0, s1, s2 = (float(np.sum(np.abs(mu_f[:, None] ** k * coef_f))) for k in range(3))
        t_max = (length - 1) * spacing
        reach = float(np.max(np.abs(mu_f))) * offset
        bound = (2.0 ** -53 * ((2 * n + 16) * s1 + 2 * s2 * t_max) * offset
                 + s0 * reach ** 2) if reach < math.log(2.0) else math.inf
        if self.dps is None:
            return table, slope, bound + 2.0 ** -53 * ((2 * n + 16) * s0 + 2 * s1 * t_max)
        with self.context():
            table, unit = _path_lattice(mu, coef, spacing, length, memo)
        return table, slope, bound + unit * s0

    def exp(self, x):
        return np.exp(x) if self.dps is None else _xc_exp(x)

    def delay_exp(self, mu, delays: np.ndarray, memo: TermMemo | None = None):
        """e^{mu_j d_c} as an (N, C) array in this backend's precision, for
        poles ``mu`` (N,) and binary64 delays d (C,). With a ``memo`` of
        ``mu`` (:class:`TermMemo`), each column is formed once per exact d."""
        if memo is None:
            return self.exp(np.outer(mu, self.lift(delays)))
        out = np.empty((mu.size, delays.size), dtype=object)
        for c, x in enumerate(delays.tolist()):
            out[:, c] = memo.get(("exp", x), lambda: _xc_exp(mu * _coerce(x)))
        return out

    def to_complex(self, x):
        """Round working-precision data to complex128."""
        if self.dps is None:
            return x
        return x.astype(complex) if isinstance(x, np.ndarray) else complex(x)


FLOAT = Backend()

# entries a TermMemo keeps; the oldest is dropped first
MEMO_ENTRIES = 128


class TermMemo:
    """What a reduction forms again and again from one payload's poles mu
    alone: the exponential vector e^{mu d} per exact delay d
    (:meth:`Backend.delay_exp`) and the power tables of a lattice
    (:func:`_lattice_powers`), each per working width; no caller writes
    to an entry. It holds at most ``MEMO_ENTRIES`` entries, and each
    reduction run makes its own
    (:meth:`delayh2.models.PoleResidueModel.with_memo`), which dies with it.
    """

    def __init__(self):
        self.entries = {}

    def get(self, key: tuple, make):
        """The entry under ``key`` at the working width, from ``make()`` the
        first time."""
        key = (_bits,) + key
        entry = self.entries.get(key)
        if entry is None:
            if len(self.entries) >= MEMO_ENTRIES:
                del self.entries[next(iter(self.entries))]
            entry = self.entries[key] = make()
        return entry


def backend_for(*models) -> Backend:
    """The backend of a sum over these models' terms: the highest payload
    precision among them, or float64 when none carries a payload."""
    dps = [m.hp.dps for m in models if m.hp is not None]
    return Backend(max(dps)) if dps else FLOAT


# ---------------------------------------------------------------------------
# double-double lattice sums
#
# A real double-double is a pair (hi, lo) of float64 arrays; a complex one
# is (re, im) of two such pairs, im None where every imaginary part is
# exactly 0 (real poles and residues then cost one real product each).

# error unit of the double-double operations: 4 u^2 with u = 2^-53
DD_UNIT = 2.0 ** -104
# entries of a full-size double-double temporary in _path_lattice; larger
# blocks raise the peak resident set, and near 128 kB they fragment the heap
DD_BLOCK = 4096
_SPLITTER = 134217729.0   # 2^27 + 1


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """(a1, a2) with a1 + a2 = a, each of at most 26 significant bits (Dekker)."""
    c = _SPLITTER * a
    a1 = c - (c - a)
    return a1, a - a1


def dd_add(a, b):
    """Sum of real double-doubles, normalised.

    Errs by at most 3u^2 (|a| + |b|) < DD_UNIT (|a| + |b|): one rounding of
    the low parts' sum and one of its sum with the leading error, each
    below u times a quantity of order u (|a| + |b|).
    """
    s, e = _two_sum(a[0], b[0])
    return _two_sum(s, e + (a[1] + b[1]))


def _dd_mul(a, b):
    """Product of real double-doubles, normalised; relative error below
    2 DD_UNIT.

    The leading product's error is exact (Dekker's TwoProduct), the cross
    products ah bl and al bh are rounded, and al bl, below u^2 |ab|, is
    dropped. Each operand is split where it is given, so a product of
    broadcast factors splits only the factors.
    """
    ah, al = a
    bh, bl = b
    p = ah * bh
    a1, a2 = _split(ah)
    b1, b2 = _split(bh)
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += ah * bl + al * bh
    s = p + e
    return s, e - (s - p)


def _cmap(fn, *xs):
    """Complex double-doubles of ``fn`` applied to the matching arrays of
    complex double-doubles of one realness."""
    return tuple(None if c[0] is None else tuple(fn(*arrays) for arrays in zip(*c))
                 for c in zip(*xs))


def _cdd_mul(x, y):
    """Product of complex double-doubles; errs by at most 4 DD_UNIT |x| |y|
    (2.75 DD_UNIT |x| |y| per component)."""
    (xr, xi), (yr, yi) = x, y
    re = _dd_mul(xr, yr)
    if xi is None and yi is None:
        return re, None
    if xi is None:
        return re, _dd_mul(xr, yi)
    if yi is None:
        return re, _dd_mul(xi, yr)
    xy = _dd_mul(xi, yi)
    return (dd_add(re, (-xy[0], -xy[1])),
            dd_add(_dd_mul(xr, yi), _dd_mul(xi, yr)))


def _dd_parts(m: int, e: int) -> tuple[float, float]:
    """m 2^e as hi + lo, each rounded to nearest: off by at most 2^-106 |m 2^e|."""
    hi = float(m)
    return math.ldexp(hi, e), math.ldexp(float(m - int(hi)), e)


def _to_dd(a: np.ndarray):
    """Complex double-double of an XComplex array, each component within
    2^-106 of its value."""
    parts = np.array([_dd_parts(v.re, v.exp) + _dd_parts(v.im, v.exp)
                      for v in a.flat]).reshape(a.shape + (4,))
    re = parts[..., 0], parts[..., 1]
    return re, (parts[..., 2], parts[..., 3]) if np.any(parts[..., 2]) else None


def _cdd_powers(z, n: int):
    """z^0, ..., z^(n-1) of complex double-doubles, along a new last axis.

    Doubling: the powers so far and the latest square are multiplied by
    that square in one product, so z^r carries r times the rounding of z
    and at most r product errors.
    """
    sq = _cmap(lambda a: a[..., None], z)
    pw = _cmap(np.zeros_like, sq)
    pw[0][0][...] = 1.0
    while pw[0][0].shape[-1] < n:
        prod = _cdd_mul(_cmap(lambda p, s: np.concatenate([p, s], axis=-1), pw, sq), sq)
        pw = _cmap(lambda p, q: np.concatenate([p, q[..., :-1]], axis=-1), pw, prod)
        sq = _cmap(lambda q: q[..., -1:], prod)
    return _cmap(lambda p: p[..., :n], pw)


def lattice_points(x: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """(i, x - i spacing) of points x within rounding of the lattice i spacing.

    The offset is exact but for its one rounding: i spacing is split exactly
    into fl(i spacing) + e (TwoProduct), and x - fl(i spacing) is exact.
    """
    i = np.rint(x / spacing)
    p, e = _dd_mul((i, 0.0), (spacing, 0.0))
    return i.astype(np.intp), (x - p) - e


def _dd_sum_rows(hi, lo):
    """Pairwise sum over the first axis, overwriting the rows; each term
    passes through at most 2 ceil(log2 rows) additions (an odd row out is
    first added to row 0)."""
    while hi.shape[0] > 1:
        h = hi.shape[0] // 2
        if hi.shape[0] % 2:
            hi[0], lo[0] = dd_add((hi[0], lo[0]), (hi[-1], lo[-1]))
        hi, lo = dd_add((hi[:h], lo[:h]), (hi[h:2 * h], lo[h:2 * h]))
    return hi[0], lo[0]


def _lattice_powers(mu, spacing: float, b: int, q: int):
    """(z^r for r < b, w^s for s < q), complex double-doubles along the
    last axis, (N, 1, b) and (N, q), of z = e^{mu spacing} and w = z^b, for
    the XComplex poles ``mu`` (N,) inside their backend's context (see
    :func:`_path_lattice`)."""
    z = w = _xc_exp(mu * _coerce(spacing))
    for _ in range(b.bit_length() - 1):
        w = w * w
    zw = _cdd_powers(_to_dd(np.concatenate([z, w])), max(b, q))
    return _cmap(lambda a: a[:mu.size, None, :b], zw), _cmap(lambda a: a[mu.size:, :q], zw)


def _path_lattice(mu, coef, spacing: float, length: int, memo: TermMemo | None = None):
    """(table, error per unit of sum |coef|) of :meth:`Backend.path_lattice`
    in double-double, for XComplex ``mu`` and ``coef`` inside their
    backend's context.

    z = e^{mu spacing} and the block power w = z^B (B the power of two
    with B^2 >= length, so w takes log2 B squarings) are formed in
    XComplex and rounded to double-double. Their power tables have B and
    Q = ceil(length / B) columns (:func:`_lattice_powers`, kept in
    ``memo`` when given), and z^{qB + r} = w^q z^r makes one full-size
    product per channel pair, formed over blocks of w-powers of at most
    DD_BLOCK entries; an entry is the high part of its sum.

    With U = DD_UNIT: z and w round by U/2 each and every complex product
    errs by at most 4U, so z^r and w^q carry 4.5U per power; coef w^q adds
    4.5U and the real part of its product with z^r 2.75U. Summing N terms
    pairwise adds 2 ceil(log2 N) U, so the sums err by at most
    (5 (B + Q) + 2 ceil(log2 N) + 2) U sum |coef|.
    """
    n, pairs = coef.shape
    b = 1 << ((length - 1).bit_length() + 1) // 2
    q = -(-length // b)
    make = lambda: _lattice_powers(mu, spacing, b, q)
    zp, wp = make() if memo is None else memo.get(("lattice", spacing, b, q), make)
    k = _to_dd(coef)
    table = np.empty((pairs, q * b))
    rows = max(1, DD_BLOCK // (n * b))
    for p in range(pairs):
        ar, ai = _cdd_mul(_cmap(lambda a: a[:, p, None], k), wp)
        for c in range(0, q, rows):
            part = slice(c, c + rows)
            terms = _dd_mul((ar[0][:, part, None], ar[1][:, part, None]), zp[0])
            if ai is not None and zp[1] is not None:
                t = _dd_mul((ai[0][:, part, None], ai[1][:, part, None]), zp[1])
                terms = dd_add(terms, (-t[0], -t[1]))
            cells = slice(c * b, (c + rows) * b)
            table[p, cells] = _dd_sum_rows(*terms)[0].ravel()
    return table[:, :length], DD_UNIT * (5 * (b + q) + 2 * (n - 1).bit_length() + 2)
