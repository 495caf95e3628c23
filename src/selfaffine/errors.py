"""Exception taxonomy.

Every failure mode raised by this package derives from :class:`SelfAffineError`
so callers (and the CLI) can distinguish data/estimation problems from bugs.
"""


class SelfAffineError(Exception):
    """Base class for all errors raised by this package."""


# --- series construction / transforms ---------------------------------------

class TooShort(SelfAffineError):
    """Input series has too few observations for the requested operation."""


class NonPositivePrice(SelfAffineError):
    """A price is zero or negative; log returns are undefined."""


class NonFiniteValue(SelfAffineError):
    """A series or an estimate holds a NaN or an infinite value, e.g. after overflow."""


class DegenerateSeries(SelfAffineError):
    """Series has zero dispersion; higher moments are undefined."""


class SingularDesign(SelfAffineError):
    """Regression design matrix is rank deficient."""


class OrderTooLarge(SelfAffineError):
    """Autoregressive order is not smaller than the series length."""


# --- simulation ---------------------------------------------------------------

class BadD(SelfAffineError):
    """Fractional integration order outside (-0.5, 0.5)."""


class BadAlpha(SelfAffineError):
    """Stable characteristic exponent outside (0, 2]."""


class BadBeta(SelfAffineError):
    """Stable skewness parameter outside [-1, 1]."""


class BadSigma(SelfAffineError):
    """Stable scale parameter not strictly positive."""


class BadDF(SelfAffineError):
    """Student-t degrees of freedom below 1."""


class ExplosiveModel(SelfAffineError):
    """AR polynomial has a root on or inside the unit circle."""


# --- scaling estimators -------------------------------------------------------

class ZeroDispersion(SelfAffineError):
    """A block has zero standard deviation; R/S is undefined."""


class AllZeroIncrements(SelfAffineError):
    """Every block increment of the price path is zero."""


class ZeroPartition(SelfAffineError):
    """A partition function value is zero; its log is undefined."""


# --- spectral / tail estimators ------------------------------------------------

class BadOrdinateCount(SelfAffineError):
    """Requested periodogram ordinate count is out of range."""


class ZeroOrdinate(SelfAffineError):
    """A periodogram ordinate used in the regression is zero."""


class NonPositiveTail(SelfAffineError):
    """A tail estimator needs a positive log argument that is not positive."""


# --- Monte Carlo / analysis -----------------------------------------------------

class TooFewValues(SelfAffineError):
    """Not enough estimates to compute the requested summary."""


class MissingCutoff(SelfAffineError):
    """Critical value table has no cutoff at the requested level."""


class AllReplicationsFailed(SelfAffineError):
    """Every Monte Carlo replication raised an estimation error."""


class IncompleteReport(SelfAffineError):
    """Test report is missing cells required for classification."""
