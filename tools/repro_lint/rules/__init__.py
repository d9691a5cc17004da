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

import re
from dataclasses import dataclass

__all__ = [
    "RULES", "OwnedAttributesRule", "Rule", "Violation", "default_rules",
    "register",
]


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


class OwnedAttributesRule(Rule):
    """Only ``owner_module`` writes the attributes named ``attrs``.

    Flags, in every other module, assignment, augmented assignment and
    ``del`` of such an attribute or one of its items, and calls of the
    in-place writing methods in :data:`WRITERS` on them.  Reads stay
    legal.  The check is name-based, so the names are reserved across
    the analyzed tree.  Subclasses set the class attributes below.
    """

    owner_module: str = ""
    attrs: tuple[str, ...] = ()
    #: What the attributes hold and where writes belong, for messages.
    guarded: str = ""
    remedy: str = ""

    #: List, dict and array methods that write in place.
    WRITERS = (
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "sort", "reverse", "update", "setdefault",
        "__setitem__", "__delitem__", "__iadd__",
    )

    def __init__(
        self,
        owner_module: str | None = None,
        attrs: tuple[str, ...] | None = None,
    ) -> None:
        if owner_module is not None:
            self.owner_module = owner_module
        if attrs is not None:
            self.attrs = attrs
        names = "|".join(map(re.escape, self.attrs))
        #: ``x._attr`` or ``x._attr[]...`` as a stored target.
        self._store = re.compile(rf"(^|\.)({names})(\[\])*$")
        #: ``x._attr[]...<writer>`` as a callee.
        self._call = re.compile(
            rf"(^|\.)({names})(\[\])*\.({'|'.join(self.WRITERS)})$"
        )

    def check(self, project):
        for module, facts in sorted(project.modules.items()):
            if module == self.owner_module:
                continue
            for function in facts.functions.values():
                writes = [
                    (store.lineno, store.target)
                    for store in function.stores
                    if self._store.search(store.target)
                ] + [
                    (call.lineno, call.callee)
                    for call in function.calls
                    if call.callee is not None and self._call.search(call.callee)
                ]
                for lineno, written in sorted(writes):
                    yield self.violation(
                        facts,
                        lineno,
                        f"{written}: only {self.owner_module} writes "
                        f"{self.guarded}; go through {self.remedy}",
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
    rl008_relation_state,
)

__all__ += [
    "rl001_salted_hash",
    "rl002_nondeterminism",
    "rl003_silent_children",
    "rl004_extent_staging",
    "rl005_broad_except",
    "rl006_catalog_epoch",
    "rl007_mkb_index",
    "rl008_relation_state",
]
