"""Exception taxonomy for the delayh2 package, and its integer-setting check.

Every error raised by the library derives from :class:`DelayH2Error`, so
callers (and the CLI) can catch one type. Names mirror the failure they
signal; none of them carries state beyond the message.
"""

import numbers


class DelayH2Error(Exception):
    """Base class for all delayh2 errors."""


class NonInvertibleE(DelayH2Error):
    """Descriptor matrix E is singular or too ill-conditioned to invert."""


class RepeatedPole(DelayH2Error):
    """Two poles coincide within tolerance; the rank-1 residue split needs
    distinct semi-simple poles."""


class Unstable(DelayH2Error):
    """A pole with nonnegative real part was found where a stable model is
    required."""


class EvalAtPole(DelayH2Error):
    """Transfer-function evaluation requested within tolerance of a pole."""


class NonRealModel(DelayH2Error):
    """Conjugate closure is violated: the model does not represent a real
    dynamical system."""


class NonRealSum(DelayH2Error):
    """A sum that must be real (norm, inner product, gradient) retained an
    imaginary part above tolerance."""


class NegativeNormSquared(DelayH2Error):
    """A squared-norm sum came out below -tolerance."""


class DimensionMismatch(DelayH2Error):
    """Input/output channel counts of two models do not line up."""


class DegenerateDirections(DelayH2Error):
    """A tangential direction vector collapsed to zero during IRKA."""


class NonFiniteObjective(DelayH2Error):
    """The delay-search objective evaluated to NaN or infinity."""


def check_int(name: str, value, least: int) -> None:
    """DelayH2Error naming the setting ``name`` unless ``value`` is an int or a
    numpy integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DelayH2Error(f"{name} {value!r} is not an integer of at least {least}")
