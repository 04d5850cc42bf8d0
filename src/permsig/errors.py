"""Exceptions shared across the package, and the field checks that raise them.

``ValueError`` is raised for caller mistakes (bad shapes, bad arguments);
:class:`ConfigError` is the ``ValueError`` of a bad setting, raised by the
object that owns the setting and naming its field.  :class:`FitError`
marks data-dependent failures that can legitimately occur inside a study
replicate and are therefore eligible for the replicate retry policy.
The autoencoder, PLS, SVM, calibration and pipeline fits take a batch
and do not raise them: each returns its model for every column with the
``FitError`` of each column that failed, whose model is that fit's zero
model, kept to the end of a pipeline fit.  Only ``FittedBatch.errors``
reads its ``FitError``.
"""

from numbers import Integral, Real


class FitError(RuntimeError):
    """A model could not be fitted on the data it was given."""


class DivergenceError(FitError):
    """Training produced a non-finite loss.

    Attributes
    ----------
    epoch : int
        Zero-based epoch index at which the loss stopped being finite.
    """

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite training loss at epoch {epoch}")

    def __reduce__(self):  # errors cross from forked children to the study
        return type(self), (self.epoch,)


class ConfigError(ValueError):
    """Invalid setting; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")

    def __reduce__(self):
        return type(self), (self.field, self.message)


def check(ok: bool, field: str, message: str) -> None:
    """Raise ``ConfigError(field, message)`` unless ``ok``."""
    if not ok:
        raise ConfigError(field, message)


# JSON's true/false arrive as bool, which isinstance() would pass as a
# number.  The exact-type tests are fast paths for the common case.
def is_int(value) -> bool:
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def is_real(value) -> bool:
    return type(value) in (float, int) or (isinstance(value, Real) and not isinstance(value, bool))


def signed_counts(y):
    """Each column's ``+1`` count in (R, n) labels, all -1 or +1 and both in every column."""
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("y must contain only -1 and +1")
    n_pos = (y > 0).sum(axis=1)
    if (n_pos == 0).any() or (n_pos == y.shape[1]).any():
        raise ValueError("both label signs must be present")
    return n_pos
