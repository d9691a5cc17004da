"""RL004: serving-plane discipline — extent mutation goes through staging."""

from __future__ import annotations

import re

from tools.repro_lint.rules import Rule, register

#: In-place Relation mutators that would bypass copy-on-write staging.
MUTATORS = (
    "insert", "delete", "apply_run", "delete_where", "replace_rows", "clear"
)

#: The one module allowed to touch extent internals directly.
DEFAULT_EXEMPT_MODULES = ("repro.relational.versioning",)

#: Attribute conventionally holding the ExtentStore.
DEFAULT_STORE_ATTR = "_extents"


@register
class ExtentStagingRule(Rule):
    code = "RL004"
    summary = (
        "extents read from an ExtentStore are never mutated in place; "
        "writes go through ExtentStore.mutable()"
    )
    explain = """\
PR 9's serving plane promises lock-free snapshot reads *during*
synchronization: readers hold an ``ExtentSnapshot`` while maintenance
stages copy-on-write overlays, and ``ExtentStore.mutable(view)`` is
the single door to an extent you may write — in serving mode it hands
back the batch's staged copy (created on first touch), in direct mode
the live relation (docs/serving.md).

Reading an extent (``store[name]``, ``store.get(name)``) and then
calling an in-place Relation mutator on it — ``insert``, ``delete``,
``apply_run``, ``delete_where``, ``replace_rows``, ``clear`` — bypasses
that door.
In serving mode the bypass writes the *published* relation mid-batch:
concurrent snapshot readers observe a torn extent, exactly the race
the MVCC tests (``tests/serving/test_concurrent_reads.py``) exist to
rule out.  The bug is invisible in direct mode and under light load,
so it must be blocked at commit time.

RL004 flags, everywhere except ``repro.relational.versioning`` (the
store's own implementation), any mutator call on an expression read
out of an ``_extents`` store — directly
(``system._extents[name].insert(row)``) or through a local binding
(``extent = self._extents.get(name)`` ... ``extent.clear()``).  A
binding from ``.mutable(...)`` marks the name clean.  Store-*level*
operations (``store[name] = relation``, ``store.pop``, ``store.update``)
are staged inside the store and stay legal.

The taint tracking is per-function and name-based: extents smuggled
through containers or returned from helpers are out of reach, so keep
the read-mutate pattern local — which the codebase already does.  If a
new module genuinely needs raw access (a future store implementation),
add it to this rule's exempt list in the same PR, with the reasoning
in the commit message.
"""

    def __init__(
        self,
        exempt_modules: tuple[str, ...] = DEFAULT_EXEMPT_MODULES,
        store_attr: str = DEFAULT_STORE_ATTR,
    ) -> None:
        self.exempt_modules = exempt_modules
        self.store_attr = store_attr
        escaped = re.escape(store_attr)
        #: ``<chain>._extents[].<mutator>`` in one expression.
        self._direct = re.compile(
            rf"(^|\.){escaped}\[\]\.({'|'.join(MUTATORS)})$"
        )
        #: Binding values that taint a local name.
        self._tainted_value = re.compile(
            rf"(^|\.){escaped}(\[\]|\.get\(\))$"
        )
        #: Binding values that explicitly clean a local name.
        self._clean_value = re.compile(rf"(^|\.){escaped}\.mutable\(\)$")

    def check(self, project):
        for module, facts in sorted(project.modules.items()):
            if module in self.exempt_modules:
                continue
            for function in facts.functions.values():
                yield from self._check_function(facts, function)

    def _check_function(self, facts, function):
        # Merge bindings and calls into source order, then run the
        # name-based taint pass.
        events: list[tuple[int, int, object]] = []
        for assignment in function.assignments:
            events.append((assignment.lineno, 0, assignment))
        for call in function.calls:
            events.append((call.lineno, 1, call))
        events.sort(key=lambda event: (event[0], event[1]))

        tainted: set[str] = set()
        for _, kind, event in events:
            if kind == 0:  # assignment
                value = event.value or ""
                if self._tainted_value.search(value):
                    tainted.add(event.target)
                else:
                    tainted.discard(event.target)
                continue
            callee = event.callee
            if callee is None:
                continue
            if self._direct.search(callee):
                yield self.violation(
                    facts,
                    event.lineno,
                    f"in-place mutation of an extent read from "
                    f"{self.store_attr} ({callee}); go through "
                    "ExtentStore.mutable() so serving-mode readers "
                    "never observe a torn extent",
                )
                continue
            head, _, method = callee.rpartition(".")
            if head in tainted and method in MUTATORS:
                yield self.violation(
                    facts,
                    event.lineno,
                    f"{callee}: {head!r} was read from {self.store_attr} "
                    f"(not .mutable()); in-place {method} bypasses "
                    "copy-on-write staging",
                )
