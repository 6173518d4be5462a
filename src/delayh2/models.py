"""Model representations and conversions.

Three value types represent everything the package computes with:

* :class:`StateSpaceModel`        -- descriptor realization (E, A, B, C),
* :class:`PoleResidueModel`       -- sum of rank-1 terms c b^T / (s - lambda),
* :class:`DelayedModel`           -- a pole/residue core wrapped by channel-wise
                                     input and output delay blocks.

Pole/residue models optionally carry a high-precision payload: the terms
as :class:`delayh2.precision.XComplex` arrays, with a recorded decimal
precision; numbers in another form are converted once, when the payload
is built. Residues of ill-conditioned partial-fraction decompositions can
exceed 1e15 with massive cancellation between terms, in which case every
sum over the terms must run in extended precision; the complex128 arrays
are then only views for inspection. The transfer and impulse sums here are
written once against :mod:`delayh2.precision`, which runs them in the
payload precision when a payload is present and in float64 otherwise.
Transfer data has one kernel,
:meth:`delayh2.precision.Backend.resolvent_sums`: the IRKA pencil, the
optimality certificate and :func:`eval_transfer` read it through
:func:`transfer_data`, which on an exactly conjugate-closed payload sums
one point of each exactly conjugate pair, and the H2 cross kernel reads it
at the full model's mirrored poles. All reduced-order models produced by
this package are plain float64.

Whether a pole is real or pairs with a conjugate is decided once, relative
to that pole, by :func:`conjugate_pairs`: canonicalization, :func:`realify_check`
and the IRKA shift pairs read it. The exact-closure rules are bitwise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EvalAtPole,
    NonInvertibleE,
    NonRealModel,
    RepeatedPole,
    Unstable,
)
from .precision import (Backend, TermMemo, backend_for, checked_precision, payload_closed,
                        payload_terms, resolvent_terms)

# Imaginary-leakage tolerance of sums that must be real (h2 scales it by max(1, |Re|)).
IMAG_TOL = 1e-10
# Relative pole-coincidence tolerance for the semi-simplicity check.
REPEATED_POLE_RTOL = 1e-8
# Relative tolerance, scaled by max(1, |p|) of the pole p tested, for reading
# p as real and (times 10) for pairing it with a conjugate (conjugate_pairs).
PAIR_RTOL = 1e-8
# Condition-number ceiling for the descriptor matrix E.
E_COND_MAX = 1e12
# Guard radius around each pole p for transfer evaluation, times max(1, |p|).
EVAL_POLE_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HighPrecisionTerms:
    """Extended-precision term list of a pole/residue model.

    ``poles`` (n,), ``left`` (n, ny) and ``right`` (n, nu) are read-only
    arrays of :class:`delayh2.precision.XComplex` numbers. Entries given in
    another form (integers, mpmath or binary64 numbers) are converted once,
    here, and exactly (:func:`delayh2.precision.payload_terms`). ``dps``
    records the decimal precision the payload was produced at (and the
    minimum precision sums over it use); it follows a model file's rule,
    else ValueError (:func:`delayh2.precision.checked_precision`).
    """

    poles: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dps: int
    # the TermMemo of a reduction run's view (PoleResidueModel.with_memo)
    memo = None

    def __post_init__(self):
        checked_precision(self.dps)
        terms = payload_terms(self.poles, self.left, self.right)
        for name, a in zip(("poles", "left", "right"), terms):
            object.__setattr__(self, name, a)

    @cached_property
    def resolvent_terms(self) -> tuple:
        """The transfer kernel's exact term data (see :func:`delayh2.precision.resolvent_terms`)."""
        return resolvent_terms(self.poles, self.left, self.right)

    @cached_property
    def conjugate_closed(self) -> bool:
        """See :func:`delayh2.precision.payload_closed`; checked on first use."""
        return payload_closed(self)


def _sort_permutation(poles: np.ndarray) -> np.ndarray:
    """Canonical term order: by (Re, |Im|), positive imaginary part first.

    Conjugate partners land adjacent with the +Im member leading, and the
    order is reproducible for any input permutation.
    """
    re = np.real(poles)
    im = np.imag(poles)
    return np.lexsort((-np.sign(im), np.abs(im), re))


def _check_distinct(poles: np.ndarray, what: str) -> None:
    """Raise RepeatedPole where two poles p, q lie closer than
    REPEATED_POLE_RTOL max(1, |p|, |q|), naming the pair deepest inside."""
    dist = np.abs(poles[:, None] - poles[None, :])
    mag = np.maximum(np.abs(poles), 1.0)
    excess = dist - REPEATED_POLE_RTOL * np.maximum.outer(mag, mag)
    np.fill_diagonal(excess, np.inf)
    i, j = np.unravel_index(np.argmin(excess), excess.shape)
    if excess[i, j] < 0.0:
        raise RepeatedPole(f"{what} {poles[i]} and {poles[j]} coincide within tolerance")


def checked_order(poles: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Canonical order of raw (poles, left, right) term arrays, raising what
    :class:`PoleResidueModel` raises for them (non-finite, unstable or
    coinciding poles)."""
    n = poles.shape[0]
    if left.shape[0] != n or right.shape[0] != n:
        raise DimensionMismatch(
            f"{n} poles but {left.shape[0]} left / {right.shape[0]} right residue rows"
        )
    if not (np.isfinite(poles).all() and np.isfinite(left).all()
            and np.isfinite(right).all()):
        raise NonRealModel("non-finite entries in pole/residue data")
    if (poles.real >= 0).any():
        worst = poles[np.argmax(poles.real)]
        raise Unstable(f"pole {worst} has nonnegative real part")
    _check_distinct(poles, "poles")
    return _sort_permutation(poles)


@dataclass(frozen=True, eq=False)
class PoleResidueModel:
    """Transfer function H(s) = sum_j left_j right_j^T / (s - poles_j).

    Parameters
    ----------
    poles : (n,) complex array
    left : (n, ny) complex array
        Left (output-side) residue vectors, one row per term.
    right : (n, nu) complex array
        Right (input-side) residue vectors, one row per term.
    hp : HighPrecisionTerms, optional
        Extended-precision payload of the same shapes; when present it is
        the authoritative representation and the float arrays are rounded
        views.

    Terms are stored in canonical order (sorted by (Re, |Im|) with the
    positive-imaginary member of each conjugate pair first). Construction
    validates stability and pole distinctness but not conjugate closure;
    use :func:`realify_check` for that.
    """

    poles: np.ndarray
    left: np.ndarray
    right: np.ndarray
    hp: HighPrecisionTerms | None = None

    def __post_init__(self):
        poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        left = np.asarray(self.left, dtype=complex)
        right = np.asarray(self.right, dtype=complex)
        # 1-D residue input means one scalar channel per term
        left = left[:, None] if left.ndim == 1 else np.atleast_2d(left)
        right = right[:, None] if right.ndim == 1 else np.atleast_2d(right)
        perm = checked_order(poles, left, right)
        object.__setattr__(self, "poles", _readonly(poles[perm]))
        object.__setattr__(self, "left", _readonly(left[perm]))
        object.__setattr__(self, "right", _readonly(right[perm]))
        if self.hp is not None:
            hp = self.hp
            shapes = hp.poles.shape, hp.left.shape, hp.right.shape
            if shapes != (poles.shape, left.shape, right.shape):
                raise DimensionMismatch(
                    f"payload shapes {shapes} differ from the term arrays' "
                    f"{(poles.shape, left.shape, right.shape)}")
            object.__setattr__(self, "hp", HighPrecisionTerms(
                hp.poles[perm], hp.left[perm], hp.right[perm], hp.dps))

    @property
    def order(self) -> int:
        return self.poles.shape[0]

    @property
    def memo(self) -> TermMemo | None:
        """The memo of this model's payload (see :meth:`with_memo`); None
        without one."""
        return None if self.hp is None else self.hp.memo

    def with_memo(self) -> PoleResidueModel:
        """This model for one reduction run: without a payload, the model
        itself; else a copy sharing every array, whose payload carries a
        fresh :class:`delayh2.precision.TermMemo`. Every sum over the copy
        is bit for bit the one over this model."""
        if self.hp is None:
            return self
        hp = copy.copy(self.hp)
        object.__setattr__(hp, "memo", TermMemo())
        view = copy.copy(self)
        object.__setattr__(view, "hp", hp)
        return view

    @property
    def ny(self) -> int:
        return self.left.shape[1]

    @property
    def nu(self) -> int:
        return self.right.shape[1]


@dataclass(frozen=True)
class StateSpaceModel:
    """Descriptor realization E x' = A x + B u, y = C x (no feedthrough).

    E must be invertible (condition number below 1e12) and all generalized
    eigenvalues of (A, E) strictly stable; both are checked on construction.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        n = E.shape[0]
        if E.shape != (n, n) or A.shape != (n, n):
            raise DimensionMismatch("E and A must be square with matching size")
        if B.shape[0] != n or C.shape[1] != n:
            raise DimensionMismatch("B rows and C columns must match the state dimension")
        for name, M in (("E", E), ("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(M)):
                raise NonRealModel(f"non-finite entries in {name}")
        cond = np.linalg.cond(E)
        if not np.isfinite(cond) or cond > E_COND_MAX:
            raise NonInvertibleE(f"cond(E) = {cond:.3e} exceeds {E_COND_MAX:.0e}")
        eigs = np.linalg.eigvals(np.linalg.solve(E, A))
        if np.any(np.real(eigs) >= 0):
            worst = eigs[np.argmax(np.real(eigs))]
            raise Unstable(f"generalized eigenvalue {worst} has nonnegative real part")
        object.__setattr__(self, "E", _readonly(E))
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", _readonly(B))
        object.__setattr__(self, "C", _readonly(C))

    @property
    def order(self) -> int:
        return self.E.shape[0]

    @property
    def ny(self) -> int:
        return self.C.shape[0]

    @property
    def nu(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class DelayBlock:
    """Per-channel nonnegative delays plus the mask of delayable channels.

    ``delays[i]`` must be 0 wherever ``mask[i]`` is False; the mask encodes
    the structured case where only some channels may carry delay.
    """

    delays: tuple
    mask: tuple

    def __init__(self, delays: Sequence[float], mask: Sequence[bool] | None = None):
        delays = tuple(float(d) for d in np.atleast_1d(np.asarray(delays, dtype=float)))
        if mask is None:
            mask = tuple(True for _ in delays)
        else:
            mask = tuple(bool(b) for b in np.atleast_1d(mask))
        if len(mask) != len(delays):
            raise DimensionMismatch("mask length differs from delay length")
        for d, m in zip(delays, mask):
            if not np.isfinite(d) or d < 0:
                raise NonRealModel(f"delay {d} is not a finite nonnegative number")
            if d != 0.0 and not m:
                raise NonRealModel(f"delay {d} on a masked-off channel")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def zeros(cls, k: int, mask: Sequence[bool] | None = None) -> "DelayBlock":
        return cls((0.0,) * k, mask)

    @classmethod
    def none(cls, k: int) -> "DelayBlock":
        """All-zero delays with every channel masked off (delay-free block)."""
        return cls((0.0,) * k, (False,) * k)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.delays, dtype=float)

    def __len__(self) -> int:
        return len(self.delays)


@dataclass(frozen=True)
class DelayedModel:
    """Delayed transfer function: diag(e^{-s*gamma}) H(s) diag(e^{-s*tau}).

    ``input_delays`` has one entry per input channel (tau), ``output_delays``
    one per output channel (gamma).
    """

    core: PoleResidueModel
    input_delays: DelayBlock
    output_delays: DelayBlock

    def __post_init__(self):
        if len(self.input_delays) != self.core.nu:
            raise DimensionMismatch(
                f"{len(self.input_delays)} input delays for {self.core.nu} inputs"
            )
        if len(self.output_delays) != self.core.ny:
            raise DimensionMismatch(
                f"{len(self.output_delays)} output delays for {self.core.ny} outputs"
            )

    @classmethod
    def undelayed(cls, core: PoleResidueModel) -> "DelayedModel":
        return cls(core, DelayBlock.none(core.nu), DelayBlock.none(core.ny))


def _as_delayed(m) -> DelayedModel:
    return m if isinstance(m, DelayedModel) else DelayedModel.undelayed(m)


# ---------------------------------------------------------------------------
# canonicalization of raw term data (used by the state-space conversion and
# by the reduced-pencil extraction in irka)


def conjugate_pairs(poles: np.ndarray) -> list[tuple[int, int | None]]:
    """(k, None) for each real pole and (k, j), k < j, for each conjugate
    pair of ``poles``, ordered by k: the package's one real/pair rule.

    p is real when |Im p| <= PAIR_RTOL max(1, |p|). Each +Im pole p, in
    (Re, Im) order, pairs with the nearest unpaired -Im pole q (not the
    next one in a sort, which rounding of equal real parts can interleave),
    and |p - conj q| <= 10 PAIR_RTOL max(1, |p|) must hold; a complex pole
    left without a partner raises NonRealModel.
    """
    # Python scalars compare, subtract and take |.| (hypot) as numpy's do
    P = np.asarray(poles, dtype=complex).tolist()
    groups, pos, neg = [], [], []
    for k, p in enumerate(P):
        if abs(p.imag) <= PAIR_RTOL * max(1.0, abs(p)):
            groups.append((k, None))
        else:
            (pos if p.imag > 0 else neg).append(k)
    for k in sorted(pos, key=lambda i: (P[i].real, P[i].imag)):
        dist = lambda j: abs(P[k] - P[j].conjugate())
        j = min(neg, key=dist, default=None)
        if j is None or dist(j) > 10 * PAIR_RTOL * max(1.0, abs(P[k])):
            raise NonRealModel(f"no conjugate partner for pole {P[k]}")
        neg.remove(j)
        groups.append((min(k, j), max(k, j)))
    if neg:
        raise NonRealModel(f"no conjugate partner for pole {P[neg[0]]}")
    return sorted(groups)


def canonicalize_terms(
    poles: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn noisy eigen-decomposition output into exactly conjugate-closed,
    balanced, deterministically phased term data.

    The real poles and conjugate pairs are those of :func:`conjugate_pairs`.
    Real-pole terms get their imaginary parts dropped; conjugate pairs are
    averaged and re-emitted as exact conjugates. Each term is rebalanced to
    ``norm(left) == norm(right)`` and rotated so the largest-magnitude entry
    of ``left`` is real positive (the pair's +Im member sets the phase).
    Raises NonRealModel if terms cannot be paired within tolerance, or if a
    real pole's term leaks |Im l| |r| + |l| |Im r| > 1e-6 max(1, |l| |r|).
    """
    poles = np.asarray(poles, dtype=complex)
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    left = left[:, None] if left.ndim == 1 else np.atleast_2d(left)
    right = right[:, None] if right.ndim == 1 else np.atleast_2d(right)
    groups = conjugate_pairs(poles)
    real_idx = [k for k, j in groups if j is None]

    def _balanced(lv, rv):
        # the 2-norms as np.linalg.norm forms them
        nl = np.sqrt(lv.real.dot(lv.real) + lv.imag.dot(lv.imag))
        nr = np.sqrt(rv.real.dot(rv.real) + rv.imag.dot(rv.imag))
        if nl == 0.0 or nr == 0.0:
            return lv, rv
        alpha = np.sqrt(nr / nl)
        lv = lv * alpha
        rv = rv / alpha
        ph = lv[np.abs(lv).argmax()]
        ph = ph / abs(ph)
        return lv / ph, rv * ph

    lr, rr = left[real_idx], right[real_idx]
    al, ar = np.abs(lr).max(axis=1), np.abs(rr).max(axis=1)
    leak = np.abs(lr.imag).max(axis=1) * ar + al * np.abs(rr.imag).max(axis=1) \
        > 1e-6 * np.maximum(al * ar, 1.0)
    if leak.any():
        raise NonRealModel(f"real pole {poles[real_idx[np.argmax(leak)]]} carries complex residues")
    out_p, out_l, out_r = [], [], []
    for k, lv, rv in zip(real_idx, lr.real + 0j, rr.real + 0j):
        lv, rv = _balanced(lv, rv)
        out_p.append(poles[k].real + 0j)
        out_l.append(lv.real + 0j)
        out_r.append(rv.real + 0j)
    for k, j in (g for g in groups if g[1] is not None):
        if poles[k].imag < 0:
            k, j = j, k
        lam = 0.5 * (poles[k] + np.conj(poles[j]))
        lv, rv = _balanced(0.5 * (left[k] + np.conj(left[j])),
                           0.5 * (right[k] + np.conj(right[j])))
        out_p += [lam, np.conj(lam)]
        out_l += [lv, np.conj(lv)]
        out_r += [rv, np.conj(rv)]
    return np.array(out_p), np.array(out_l), np.array(out_r)


# ---------------------------------------------------------------------------
# conversion


def pole_residue_from_state_space(m: StateSpaceModel) -> PoleResidueModel:
    """Partial-fraction decomposition of C (sE - A)^{-1} B.

    Diagonalizes E^{-1}A (dense), so the pencil must have distinct
    (semi-simple) eigenvalues; coinciding ones raise RepeatedPole. The
    rank-1 residues are balanced so that ``norm(left) == norm(right)``.
    """
    eigvals, X = np.linalg.eig(np.linalg.solve(m.E, m.A))
    _check_distinct(eigvals, "eigenvalues")
    # C (sE-A)^{-1} B = (C X) diag(1/(s-lam)) (X^{-1} E^{-1} B)
    CX = m.C @ X
    BX = np.linalg.solve(X, np.linalg.solve(m.E, m.B))
    poles, lv, rv = canonicalize_terms(eigvals, CX.T, BX)
    return PoleResidueModel(poles, lv, rv)


# ---------------------------------------------------------------------------
# evaluation


def transfer_data(bk: Backend, m: PoleResidueModel, s: np.ndarray):
    """(G(s_i), -G'(s_i)) of ``m`` at binary64 points ``s``, each an
    (n, ny, nu) array in ``bk``'s precision; call inside ``bk.context()``.

    The one kernel of transfer data, read by the IRKA pencil, the optimality
    certificate and :func:`eval_transfer`: one reciprocal per (point, term)
    (see :meth:`delayh2.precision.Backend.resolvent_sums`). Mirror rule: on
    an exactly conjugate-closed payload a point that is the exact conjugate
    of the point before it (and not itself a mirror) is not summed; its
    data are the conjugates of that point's.
    """
    mirror = bk.dps is not None and m.hp is not None and m.hp.conjugate_closed
    part = np.zeros(s.size, dtype=bool)
    for i in range(1, s.size):
        part[i] = mirror and s[i].imag != 0 and not part[i - 1] and s[i] == np.conj(s[i - 1])
    val, nder = bk.resolvent_sums(s[~part], m)
    if part.any():
        at = np.cumsum(~part) - 1
        val, nder = val[at], nder[at]
        val[part], nder[part] = np.conj(val[part]), np.conj(nder[part])
    return val, nder


def transfer_values(m: PoleResidueModel, s) -> tuple[np.ndarray, np.ndarray]:
    """:func:`transfer_data` in ``m``'s precision, rounded to complex128; a
    point within EVAL_POLE_RTOL max(1, |p|) of a pole p raises EvalAtPole."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    near = np.abs(s[:, None] - m.poles) < EVAL_POLE_RTOL * np.maximum(1.0, np.abs(m.poles))
    if near.any():
        raise EvalAtPole(f"evaluation point {s[near.any(axis=1)][0]} is within tolerance of a pole")
    bk = backend_for(m)
    with bk.context():
        return tuple(map(bk.to_complex, transfer_data(bk, m, s)))


def eval_transfer(m: PoleResidueModel, s: complex) -> np.ndarray:
    """H(s) = sum_j left_j right_j^T / (s - lambda_j) as an ny-by-nu matrix."""
    return transfer_values(m, s)[0].reshape(np.shape(s) + (m.ny, m.nu))


def eval_transfer_derivative(m: PoleResidueModel, s: complex) -> np.ndarray:
    """d/ds of the transfer function: -sum_j left_j right_j^T / (s - lambda_j)^2."""
    return -transfer_values(m, s)[1].reshape(np.shape(s) + (m.ny, m.nu))


# ---------------------------------------------------------------------------
# impulse response


def realify_check(m: PoleResidueModel, tol: float = IMAG_TOL) -> bool:
    """True iff the model represents a real system: its poles are real or
    conjugate pairs (:func:`conjugate_pairs`), each real pole's residue
    vectors are real and each pair's are conjugates, all within
    tol max(1, largest residue entry)."""
    try:
        groups = conjugate_pairs(m.poles)
    except NonRealModel:
        return False
    res_tol = tol * max(1.0, float(max(np.max(np.abs(m.left)), np.max(np.abs(m.right)))))
    # a real pole's residues against their own conjugates, a pair's against each other
    defect = lambda a, k, j: np.max(np.abs(a[k].imag if j is None else a[j] - np.conj(a[k])))
    return all(max(defect(m.left, k, j), defect(m.right, k, j)) <= res_tol for k, j in groups)


def impulse_response(m: DelayedModel | PoleResidueModel, t_grid: np.ndarray) -> np.ndarray:
    """Impulse response on a time grid: real array of shape (ny, nu, len(t)).

    Entry (a, b) at time t is sum_j left[j,a] right[j,b] e^{lambda_j (t-g-τ)}
    for t >= gamma_a + tau_b and 0 before. The imaginary part must cancel by
    conjugate closure; |Im| >= 1e-10 raises NonRealModel.
    """
    hd = _as_delayed(m)
    core = hd.core
    t = np.asarray(t_grid, dtype=float).ravel()
    if t.size and (not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0) or t[0] < 0):
        raise NonRealModel("time grid must be finite, nondecreasing and nonnegative")
    if not realify_check(core, tol=1e-8):
        raise NonRealModel("impulse response requires a conjugate-closed model")
    gam = hd.output_delays.as_array()
    tau = hd.input_delays.as_array()
    out = np.zeros((core.ny, core.nu, t.size))
    bk = backend_for(core)
    with bk.context():
        poles, left, right = bk.terms(core)
        for a in range(core.ny):
            for b in range(core.nu):
                shift = gam[a] + tau[b]
                alive = t >= shift
                dt = bk.lift(t[alive]) - bk.lift(shift)
                vals = bk.to_complex(np.einsum("j,jp->p", left[:, a] * right[:, b],
                                               bk.exp(np.outer(poles, dt))))
                leak = np.max(np.abs(vals.imag)) if vals.size else 0.0
                if leak >= IMAG_TOL:
                    raise NonRealModel(f"imaginary leakage {leak:.3e} in impulse response")
                out[a, b, alive] = vals.real
    return out
