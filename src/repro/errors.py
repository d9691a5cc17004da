"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available;
error messages always name the offending object (relation, attribute, view,
constraint) to keep failures diagnosable in the multi-source setting.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A relation schema is malformed or used inconsistently."""


class UnknownAttributeError(SchemaError):
    """An attribute name does not exist in the schema it was looked up in."""

    def __init__(self, attribute: str, schema_name: str = "?") -> None:
        super().__init__(f"unknown attribute {attribute!r} in schema {schema_name!r}")
        self.attribute = attribute
        self.schema_name = schema_name


class UnknownRelationError(ReproError):
    """A relation name does not exist in the catalog it was looked up in."""

    def __init__(self, relation: str, where: str = "catalog") -> None:
        super().__init__(f"unknown relation {relation!r} in {where}")
        self.relation = relation
        self.where = where


class TypeMismatchError(SchemaError):
    """A tuple value does not conform to the declared attribute type."""


class ParseError(ReproError):
    """E-SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ConstraintError(ReproError):
    """A MISD constraint is malformed or inconsistent with the schemas."""


class SynchronizationError(ReproError):
    """View synchronization could not proceed (e.g. view not evolvable)."""


class ViewUndefinedError(SynchronizationError):
    """No legal rewriting exists for a view after a capability change."""

    def __init__(self, view_name: str, reason: str = "") -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(f"view {view_name!r} cannot be synchronized{detail}")
        self.view_name = view_name


class EvaluationError(ReproError):
    """A QC-Model evaluation was requested with inconsistent inputs."""


class MaintenanceError(ReproError):
    """The incremental-maintenance simulator hit an inconsistent state."""


class WorkspaceError(ReproError):
    """The information space is in a state that forbids the operation."""


class ConfigurationError(ReproError):
    """A system configuration value is invalid or inconsistent.

    Raised by every :mod:`repro.config` profile constructor (unknown
    engine/policy/executor/representation names, negative budgets,
    ``shards < 1``, conflicting legacy-kwarg/config spellings) so
    callers validate declarative configurations against one exception
    type regardless of which subsystem the offending field configures.
    """
