"""Exception hierarchy shared by all cvuq modules.

Data problems (bad files, malformed inputs, impossible fold layouts) derive
from :class:`DataError`; numerical failures (singular fits, unbounded
integrands) derive from :class:`NumericError`.  The CLI maps these groups to
exit codes 3 and 4, respectively.
"""


class CvuqError(Exception):
    """Base class for all library errors."""


class DataError(CvuqError):
    """Invalid input data or parameters."""


class NumericError(CvuqError):
    """Numerical failure during computation."""


class MalformedInput(DataError):
    """Unparseable file content: bad header, ragged rows, NaN/Inf values."""


class TooFewRows(DataError):
    """A training set needs at least two rows."""


class DimensionMismatch(DataError):
    """Feature dimensions of inputs disagree."""


class WeightSumError(DataError):
    """ECDF weights must be positive and sum to one."""


class EmptyFold(DataError):
    """A fold partition contains an empty fold."""


class FoldLeavesNothing(DataError):
    """A fold covers the whole sample, leaving no rows to train on."""


class InvalidBundle(DataError):
    """The requested interval method is unknown."""


class NonMonotoneLoss(DataError):
    """Loss descriptor failed its monotonicity probe."""


class NonIntegerResiduals(DataError):
    """Misclassification rate requires integer-valued residuals."""


class InvalidTolerance(DataError):
    """A tolerance parameter that must be positive is not."""


class InnerTooSmall(DataError):
    """Nested Monte Carlo needs at least two inner replications."""


class UnboundedLoss(NumericError):
    """Expectation transfer requires declared finite bounds."""


class DegenerateFit(NumericError):
    """Linear system is singular at the documented pivot threshold."""
