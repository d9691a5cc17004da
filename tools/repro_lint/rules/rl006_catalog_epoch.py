"""RL006: catalog writes stay inside the catalog, where they move the
epoch and stamp the names they touched."""

from __future__ import annotations

import re

from tools.repro_lint.rules import Rule, register

#: The one module allowed to write a catalog's relation map.
DEFAULT_OWNER_MODULE = "repro.relational.catalog"

#: The attribute holding a catalog's name -> relation map.
DEFAULT_MAP_ATTR = "_relations"

#: The method every writing function of the owner module must call,
#: passing the relation names it touched.
DEFAULT_BUMP = "_moved"

#: Dict methods that write in place.
MUTATORS = (
    "pop", "popitem", "clear", "update", "setdefault",
    "__setitem__", "__delitem__",
)


@register
class CatalogEpochRule(Rule):
    code = "RL006"
    summary = (
        "only relational/catalog.py writes Catalog._relations, and every "
        "write there moves Catalog.epoch and stamps the names it touched"
    )
    explain = """\
The view maintainer keeps one compiled program per view shape and
trusts it while no catalog write touched one of the view's relation
names: ``Catalog.epoch`` is the process-wide count of writes to any
catalog's relation map, and ``Catalog.stamp(name)`` the epoch of the
last write that touched ``name``.  Every such write goes through one of
``Catalog``'s six mutators (``add``, ``remove``, ``rename_relation``,
``drop_attribute``, ``add_attribute``, ``rename_attribute``), and each
calls ``self._moved(*names)`` after writing, which bumps the epoch and
stamps the names.  A write that skips the call — a new module assigning
``source.catalog._relations[name] = relation``, or a new ``Catalog``
method that forgets ``self._moved(name)`` — re-hosts or re-schemas a
relation behind the maintainer's back, and its next flush runs a
program compiled for the old owner or schema: wrong itinerary, wrong
projection, wrong extent, with no error.  A bare ``self._moved()``
moves the epoch but stamps nothing, so the maintainer still skips the
placement check of the views over the written name.

RL006 flags, in every module except ``repro.relational.catalog``, any
in-place write to a ``_relations`` chain: assignment, augmented
assignment or ``del`` of the attribute or one of its items, and calls
of the dict's writing methods (``pop``, ``popitem``, ``clear``,
``update``, ``setdefault``, ``__setitem__``, ``__delitem__``).  Reads
stay legal.  Inside the catalog module, every function other than
``__init__`` that writes ``_relations`` must also call ``_moved`` with
at least one relation name (a new catalog starts empty, so
constructing one moves nothing).  Which names is beyond a name-based
check: pass every name the write added, removed or re-schemaed — both
of a rename's.

The check is name-based, like RL004: a map smuggled out under another
name is out of reach, so keep the relation map private.  Writes belong
in a ``Catalog`` method that bumps the epoch; there is no suppression
comment.
"""

    def __init__(
        self,
        owner_module: str = DEFAULT_OWNER_MODULE,
        map_attr: str = DEFAULT_MAP_ATTR,
        bump: str = DEFAULT_BUMP,
    ) -> None:
        self.owner_module = owner_module
        self.bump = bump
        escaped = re.escape(map_attr)
        self._map_attr = map_attr
        #: ``x._relations`` or ``x._relations[]`` as a stored target.
        self._store = re.compile(rf"(^|\.){escaped}(\[\])?$")
        #: ``x._relations.<mutator>`` as a callee.
        self._call = re.compile(
            rf"(^|\.){escaped}\.({'|'.join(MUTATORS)})$"
        )

    def _writes(self, function):
        for store in function.stores:
            if self._store.search(store.target):
                yield store.lineno, store.target
        for call in function.calls:
            if call.callee is not None and self._call.search(call.callee):
                yield call.lineno, call.callee

    def check(self, project):
        for module, facts in sorted(project.modules.items()):
            owner = module == self.owner_module
            for function in facts.functions.values():
                writes = sorted(self._writes(function))
                if not writes:
                    continue
                if not owner:
                    for lineno, written in writes:
                        yield self.violation(
                            facts,
                            lineno,
                            f"{written}: only {self.owner_module} writes "
                            f"{self._map_attr}; go through a Catalog "
                            "method so Catalog.epoch moves",
                        )
                    continue
                if function.name == "__init__":
                    continue
                bumps = [
                    call
                    for call in function.calls
                    if call.callee is not None
                    and call.callee.rpartition(".")[2] == self.bump
                ]
                lineno, written = writes[0]
                if not bumps:
                    yield self.violation(
                        facts,
                        lineno,
                        f"{function.qualname} writes {written} without "
                        f"calling {self.bump}(); Catalog.epoch must move "
                        "with every relation-map write",
                    )
                elif not any(call.arg_count for call in bumps):
                    yield self.violation(
                        facts,
                        bumps[0].lineno,
                        f"{function.qualname} writes {written} but calls "
                        f"{self.bump}() with no relation name; stamp the "
                        "names the write touched",
                    )
