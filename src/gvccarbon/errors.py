"""Exception hierarchy for the gvccarbon toolkit.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses: 2 for schema/config problems, 3 for numerical
failures. Success is 0 and expectation-check failures are 4 (raised as
:class:`CheckFailure`).
"""

import contextlib


class GvcCarbonError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


@contextlib.contextmanager
def prefixed(place, kinds=GvcCarbonError):
    """Put ``place: `` in front of the message of an error of ``kinds``
    raised in the block: how a caller names the file or table that the
    code raising the error does not know."""
    try:
        yield
    except kinds as exc:
        exc.args = (f"{place}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# Schema / configuration errors (exit code 2)
# ---------------------------------------------------------------------------

class SchemaError(GvcCarbonError):
    """Input file does not match the declared schema."""

    exit_code = 2


class BalanceError(SchemaError):
    """Accounting identities of an input-output table are violated."""


class ConfigError(SchemaError):
    """Run configuration is missing, malformed, or inconsistent."""


class MissingRow(SchemaError):
    """An expected (country, industry) record is absent."""


class NegativeEmission(SchemaError):
    """An emissions record carries a negative value."""


class DuplicateKey(SchemaError):
    """A (country, year, variable) key, or a country or industry code of a
    table, appears more than once."""


class UnknownVariableName(SchemaError):
    """An indicator name is not one of the recognized variable codes."""


class MissingCell(SchemaError):
    """A (unit, period, variable) cell required for a balanced panel is absent."""

    def __init__(self, unit, period, variable):
        self.unit, self.period, self.variable = unit, period, variable
        super().__init__(f"missing cell: unit={unit} period={period} variable={variable}")


class DuplicateSource(SchemaError):
    """A panel cell is provided by more than one data source."""


class UnknownCountry(SchemaError):
    """A country code is not present in the table."""


class UnknownVariable(SchemaError):
    """A variable name is not present in the panel."""


class MissingValue(SchemaError):
    """A country has no value for the requested indicator."""


class NonPositiveLog(SchemaError):
    """A log transform was requested on a non-positive cell."""

    def __init__(self, unit, period, variable, value):
        self.unit, self.period, self.variable, self.value = unit, period, variable, value
        super().__init__(
            f"log of non-positive value {value!r} at unit={unit} period={period} "
            f"variable={variable}"
        )


# ---------------------------------------------------------------------------
# Numerical failures (exit code 3)
# ---------------------------------------------------------------------------

class NumericalError(GvcCarbonError):
    """Base class for numerical failures."""

    exit_code = 3


class SingularOutput(NumericalError):
    """An industry buys intermediates out of zero gross output, or out of
    so little that a technical coefficient would overflow."""


class NonProductive(NumericalError):
    """(I - A) is singular or the Leontief inverse has negative entries."""


class DimensionMismatch(NumericalError):
    """Matrix or vector dimensions do not conform."""


class RankDeficient(NumericalError):
    """Design matrix is rank deficient or too ill-conditioned to solve."""

    def __init__(self, columns, message=None):
        self.columns = tuple(columns)
        super().__init__(message or f"collinear column(s): {', '.join(self.columns)}")


class NonStationaryRho(NumericalError):
    """Estimated AR(1) coefficient has absolute value >= 1."""


class InsufficientPeriods(NumericalError):
    """Too few time periods remain after differencing and instrumenting."""


class DegenerateSeries(NumericalError):
    """A series is constant, so its correlation is undefined."""


# ---------------------------------------------------------------------------
# Expectation-check failures (exit code 4)
# ---------------------------------------------------------------------------

class CheckFailure(GvcCarbonError):
    """A produced table does not match a user-supplied expected table."""

    exit_code = 4


# ---------------------------------------------------------------------------
# Warnings
# ---------------------------------------------------------------------------

class WeakInstrument(UserWarning):
    """First-stage F statistic of an instrumented column is below 10."""
