"""Rule registry: plugin classes over the shared facts + graphs.

A rule is a class with a ``code`` (``RL00X``), a one-line ``summary``,
a multi-paragraph ``explain`` (the ``--explain`` text: the invariant,
where it came from, how to suppress with justification), and a
``check(project)`` method yielding :class:`Violation`.

Registration is declarative — ``@register`` at class-definition time —
so adding a rule is one new module in this package plus an import line
below; nothing in the engine or CLI changes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RULES", "Rule", "Violation", "default_rules", "register"]


@dataclass(frozen=True)
class Violation:
    """One finding: rule code, position, and a human-readable message."""

    rule: str
    path: str
    lineno: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.lineno}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "lineno": self.lineno,
            "message": self.message,
        }


class Rule:
    """Base class; concrete rules override ``check``."""

    code: str = "RL000"
    summary: str = ""
    explain: str = ""

    def check(self, project):
        raise NotImplementedError

    def violation(self, facts, lineno: int, message: str) -> Violation:
        return Violation(
            rule=self.code,
            path=str(facts.path),
            lineno=lineno,
            message=message,
        )


#: code -> rule class, in registration (= numeric) order.
RULES: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    RULES[rule_class.code] = rule_class
    return rule_class


def default_rules() -> list[Rule]:
    """One instance of every registered rule, repo defaults."""
    return [rule_class() for rule_class in RULES.values()]


# Importing the rule modules is what populates the registry.
from tools.repro_lint.rules import (  # noqa: E402 - registry population
    rl001_salted_hash,
    rl002_nondeterminism,
    rl003_silent_children,
    rl004_extent_staging,
    rl005_broad_except,
    rl006_catalog_epoch,
    rl007_mkb_index,
)

__all__ += [
    "rl001_salted_hash",
    "rl002_nondeterminism",
    "rl003_silent_children",
    "rl004_extent_staging",
    "rl005_broad_except",
    "rl006_catalog_epoch",
    "rl007_mkb_index",
]
