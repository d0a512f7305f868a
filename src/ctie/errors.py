"""Exception types shared across the package.

``DataError`` covers everything caused by bad input data; the CLI maps it
to exit code 1. Anything else that escapes is a runtime failure (exit 3).
"""


class DataError(Exception):
    """Base class for invalid input data or annotations."""


class MalformedDocument(DataError):
    """The input is not parseable JSON."""


class SchemaError(DataError):
    """A record is missing a field or a field has the wrong shape/type."""


class SpanError(DataError):
    """An entity span is out of range, overlapping, or inconsistent with labels."""


class LabelError(DataError):
    """A per-token label sequence has the wrong length or an invalid tag."""


class RelationIndexError(DataError, IndexError):
    """A relation's head/tail index does not point at an entity."""


class UnknownRelation(DataError):
    """A relation name has no entry in the ontology schema."""


class OverlapError(DataError):
    """Two entity spans that must be disjoint intersect."""


class DuplicatePairError(DataError):
    """The same ordered entity pair is annotated more than once."""


class LengthError(DataError):
    """A sentence exceeds the configured maximum encodable length."""


class IdOutOfRange(DataError):
    """A token/type/label id is outside its table."""


class EmptyMask(DataError):
    """An entity span selects no tokens while entity pooling requires one."""


class EmptyInput(DataError):
    """The input sentence contains no tokens."""


class UnknownFormat(DataError):
    """An unsupported export format name."""


class NonFiniteLoss(RuntimeError):
    """Training produced a NaN/Inf loss; carries the offending batch origins."""

    def __init__(self, message: str, origins=()):
        super().__init__(message)
        self.origins = tuple(origins)
