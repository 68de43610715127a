"""Exception types shared across the simulator.

The CLI maps these onto exit codes: config problems -> 2, io/parse
problems -> 3, numeric failures -> 4.
"""


class DcthermError(Exception):
    """Base class for all simulator errors."""


class InvalidConfig(DcthermError):
    """A configuration value violates a type invariant."""

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid config field '{field}': {reason}")


class DomainError(DcthermError):
    """An argument is outside the documented domain of an operation."""


class EmptyInput(DomainError):
    """An operation that needs at least one element got none."""


class LengthMismatch(DomainError):
    """Paired sequences differ in length."""


class DimensionMismatch(DomainError):
    """Array shapes do not chain through the network."""


class EmptyDataset(DomainError):
    """Trainer received no samples."""


class NonFiniteLoss(DcthermError):
    """Training loss became NaN/inf; carries the epoch for diagnostics."""

    def __init__(self, epoch, loss):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")


class IoError(DcthermError):
    """File could not be read or written."""


class ParseError(DcthermError):
    """A trace or CSV file is malformed; carries a 1-based position."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{where}")


class SchemaError(ParseError):
    """CSV header does not match the documented schema."""


class UnknownPolicy(DcthermError):
    """No placement policy under the requested name."""
