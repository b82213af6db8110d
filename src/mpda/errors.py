"""Exception hierarchy shared by all modules.

Two branches matter for the CLI exit codes: ``DataError`` (bad or
inconsistent input data, exit 3) and ``ComputeError`` (a numerical stage
could not complete, exit 4).  No patch spans two components of its class's
k'-NN graph, so no error covers a patch with an unreachable pair.
"""


class MpdaError(Exception):
    """Base class for all package errors."""


class DataError(MpdaError):
    """Input data is malformed or inconsistent with the request."""


class ComputeError(MpdaError):
    """A numerical computation could not be carried out."""


class ParseError(DataError):
    """A data file could not be parsed (malformed row, non-numeric field)."""


class EmptyDatasetError(DataError):
    """A dataset with zero rows was loaded."""


class DegenerateSplitError(DataError):
    """A train/test split left some class without training points."""


class KTooLargeError(DataError):
    """Requested neighbor count k is not smaller than the number of points."""


class LengthMismatchError(DataError):
    """Two vectors that must be aligned have different lengths."""


class DimensionMismatchError(DataError):
    """A matrix has the wrong number of columns for the given model."""


class EmptyTrainSetError(DataError):
    """Classification was requested against an empty training set."""


class DegenerateFoldsError(DataError):
    """Cross-validation folds cannot be stratified (class smaller than fold count)."""


class LayoutMismatchError(ComputeError):
    """Patch assignments, bases and block layout do not agree."""


class SolverFailureError(ComputeError):
    """The eigenvalue solver failed to converge."""


class ResourceLimitError(ComputeError):
    """The assembled problem exceeds the configured size cap."""
