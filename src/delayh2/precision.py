"""Working precision of the sums over a model's terms.

Every quantity the package computes is a sum over a pole/residue model's
terms: transfer values, the impulse response, the H2 cross kernel and its
delay derivatives, and the projected IRKA pencil. Each is written once as
numpy array code against a :class:`Backend`, which fixes what the arrays
hold (the IRKA pencil alone keeps a separate float64 form, see
:mod:`delayh2.irka`):

* no model in the sum carries a high-precision payload: plain complex128
  arrays, and every operation is the ordinary float64 one;
* otherwise: numpy object arrays of ``mpmath.mpc`` at the highest payload
  precision, with every binary64 input (evaluation points, times, delays,
  directions, float models) lifted exactly. ``@``, ``einsum`` and
  broadcasting then run the same expressions in mpmath arithmetic, inside
  :meth:`Backend.context`.

Results leave a backend as complex128 through :meth:`Backend.to_complex`.
"""

from __future__ import annotations

from contextlib import nullcontext

import mpmath as mp
import numpy as np

_mp_exp = np.frompyfunc(mp.exp, 1, 1)
_mp_mpc = np.frompyfunc(mp.mpc, 1, 1)
_mp_mpf = np.frompyfunc(mp.mpf, 1, 1)


class Backend:
    """Array arithmetic at one working precision (``dps=None``: float64)."""

    def __init__(self, dps: int | None = None):
        self.dps = dps

    def context(self):
        """Context that every operation on this backend's arrays runs in."""
        return nullcontext() if self.dps is None else mp.workdps(self.dps)

    def lift(self, x):
        """Exact working-precision copy of binary64 data (real stays real)."""
        x = np.asarray(x)
        if self.dps is None:
            return x
        out = np.empty(x.shape, dtype=object)
        return (_mp_mpc if np.iscomplexobj(x) else _mp_mpf)(x, out=out)

    def terms(self, m):
        """(poles, left, right) of a pole/residue model in working precision.

        A model's payload is authoritative; float models are lifted exactly.
        """
        if self.dps is None:
            return m.poles, m.left, m.right
        if m.hp is None:
            return self.lift(m.poles), self.lift(m.left), self.lift(m.right)
        return (np.array(m.hp.poles, dtype=object),
                np.array(m.hp.left, dtype=object),
                np.array(m.hp.right, dtype=object))

    def exp(self, x):
        return np.exp(x) if self.dps is None else _mp_exp(x)

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
