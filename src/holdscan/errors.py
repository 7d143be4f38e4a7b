"""Exception hierarchy shared by all holdscan modules.

Two families matter for the CLI exit-code scheme: DataValidationError
(bad input files, bad labels, bad config values; exit code 2) and
ProtocolError (contract violations between pipeline stages; exit code 3).
IO problems are left to the built-in OSError family (exit code 1).
"""

from __future__ import annotations

import copyreg


class HoldscanError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # Unpickle from the message and attributes without calling __init__,
        # whose signature differs between subclasses, so that an error raised
        # in a worker process reaches the caller with its class, message and
        # attributes, and therefore its exit code.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DataValidationError(HoldscanError):
    """Input data or configuration failed validation."""


class ProtocolError(HoldscanError):
    """A pipeline stage was called with arguments violating its contract."""


# --- transcript / holds ingestion ---------------------------------------

class MissingColumn(DataValidationError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"missing required column(s): {', '.join(self.columns)}")


class MalformedRow(DataValidationError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class NonMonotonicTimestamps(DataValidationError):
    def __init__(self, call_id: str):
        self.call_id = call_id
        super().__init__(f"call {call_id!r}: start_ms decreases along turn_index order")


class DuplicateTurnIndex(DataValidationError):
    def __init__(self, call_id: str, turn_index: int):
        self.call_id = call_id
        self.turn_index = turn_index
        super().__init__(f"call {call_id!r}: duplicate turn_index {turn_index}")


class UnknownCall(DataValidationError):
    def __init__(self, call_id: str):
        self.call_id = call_id
        super().__init__(f"call {call_id!r} not present in the corpus")


class Unlabeled(DataValidationError):
    """An operation requiring gold labels met an unlabeled turn."""


# --- synthetic generation ------------------------------------------------

class EmptyTemplatePool(DataValidationError):
    def __init__(self, pool: str):
        self.pool = pool
        super().__init__(f"template pool {pool!r} is empty but a phrase was requested")


# --- fold splitting ------------------------------------------------------

class ClassTooSmall(DataValidationError):
    def __init__(self, label: int, count: int, k: int):
        self.label = label
        self.count = count
        self.k = k
        super().__init__(f"class {label} has only {count} rows, need at least {k} for k={k}")


class SplitInfeasible(DataValidationError):
    """Call-grouped splitting could not meet the per-fold balance bound."""


# --- classifier ----------------------------------------------------------

class EmptyTrainingSet(DataValidationError):
    pass


class UnlabeledExample(DataValidationError):
    pass


class SpecMismatch(ProtocolError):
    """Model was trained with a different FeatureSpec than the one supplied."""


class ProbabilityInvariantViolation(DataValidationError):
    pass


class DuplicateKey(DataValidationError):
    def __init__(self, call_id: str, turn_index: int):
        self.call_id = call_id
        self.turn_index = turn_index
        super().__init__(f"duplicate prediction for ({call_id!r}, {turn_index})")


# --- metrics -------------------------------------------------------------

class LengthMismatch(ProtocolError):
    pass


class EmptyInput(ProtocolError):
    pass


class SingleClassOnly(ProtocolError):
    """ROC AUC needs at least two distinct labels."""


# --- tuning --------------------------------------------------------------

class EmptyFold(ProtocolError):
    pass


class FoldTooSmall(DataValidationError):
    """A threshold search needs validation and test folds; a trained run, a train fold too."""


class UnknownAxis(ProtocolError):
    def __init__(self, axis: str):
        self.axis = axis
        super().__init__(f"unknown sweep axis {axis!r}, expected 'class_weights' or 'learning_rate'")


# --- compliance ----------------------------------------------------------

class MissingPredictions(DataValidationError):
    def __init__(self, call_id: str):
        self.call_id = call_id
        super().__init__(f"no prediction for one or more turns of call {call_id!r}")
