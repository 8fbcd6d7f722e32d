"""Exception hierarchy for qcext.

Every error raised on purpose by this package derives from QcextError, so
callers can catch one type at API boundaries.  Subclasses are grouped by the
stage that raises them: group arithmetic, coned-graph searches, separating
coset machinery, certification, and user-facing configuration.
"""

from __future__ import annotations


class QcextError(Exception):
    """Base class for all qcext errors."""


class UnknownGeneratorError(QcextError):
    """A word or table refers to a generator symbol that does not exist."""


class MixedContextError(QcextError):
    """Two elements from different groups or embeddings were combined."""


class GroupTableError(QcextError):
    """A finite multiplication table fails the group axioms."""


class DomainError(QcextError):
    """An element lies outside the domain an operation requires."""


class BudgetExhaustedError(QcextError):
    """A graph search ran out of its vertex or depth budget."""


class NotGeodesicError(QcextError):
    """A path submitted as geodesic does not realize the distance."""


class NotSeparatingError(QcextError):
    """A coset claimed to separate a pair does not."""


class PartitionNotFoundError(QcextError):
    """No valid two-sided split of a separating coset chain exists."""


class CertificateError(QcextError):
    """A certified bound is violated by a concrete evaluation."""


class InvariantError(QcextError):
    """An internal invariant failed; kept as a raise so `python -O` keeps it."""


class ConfigError(QcextError):
    """A CLI or file configuration is malformed."""
