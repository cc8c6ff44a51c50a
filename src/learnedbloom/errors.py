"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument to a constructor or operation is out of its valid range."""


class WorkloadError(RuntimeError):
    """A query workload cannot be produced as requested."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


class OracleUnavailableError(RuntimeError):
    """Exact enumeration is infeasible for this distribution; fall back to sampling."""


class FilterFormatError(ValueError):
    """A serialized filter or scorer record is malformed."""
