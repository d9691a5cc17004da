"""RL007: only the MKB edits its constraint lists and the index over them."""

from __future__ import annotations

import re

from tools.repro_lint.rules import Rule, register

#: The one module allowed to write the attributes below.
DEFAULT_OWNER_MODULE = "repro.misd.mkb"

#: ``MetaKnowledgeBase``'s constraint lists and the derived index state.
DEFAULT_ATTRS = (
    "_pc_constraints",
    "_historical_pc",
    "_join_constraints",
    "_historical_join",
    "_index",
    "_sync_pc",
    "_index_version",
)

#: List and dict methods that write in place.
MUTATORS = (
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "sort", "reverse", "update", "setdefault",
    "__setitem__", "__delitem__", "__iadd__",
)


@register
class MKBIndexRule(Rule):
    code = "RL007"
    summary = (
        "only misd/mkb.py writes the MKB's constraint lists, its "
        "relation index and the index's memo"
    )
    explain = """\
Every candidate rewriting reads the constraints of the relation it
replaces through the MKB's ``(kind, relation)`` index, and
``sync_pc_constraints`` memoizes its answers beside it.  The index is
current while ``_index_version`` equals ``version``: the mutators of
``MetaKnowledgeBase`` that move whole constraints (constraint adds, a
relation delete) patch the index and the memo in place, and the ones
that rewrite the lists (renames, attribute deletes,
``retract_pc_constraint``) leave them stale for the next lookup to
rebuild.  A write from anywhere else — appending to
``mkb._pc_constraints``, filtering ``mkb._historical_pc`` in place, or
resetting ``mkb._index`` — skips that bookkeeping: lookups keep serving
the old constraints, candidate generation misses a donor or routes
through a retired one, and the committed rewriting changes with no
error.

RL007 flags, in every module except ``repro.misd.mkb``, any in-place
write to ``_pc_constraints``, ``_historical_pc``, ``_join_constraints``,
``_historical_join``, ``_index``, ``_sync_pc`` or ``_index_version``:
assignment, augmented assignment or ``del`` of the attribute or one of
its items, and calls of the list and dict writing methods (``append``,
``extend``, ``insert``, ``remove``, ``pop``, ``popitem``, ``clear``,
``sort``, ``reverse``, ``update``, ``setdefault``, ``__setitem__``,
``__delitem__``, ``__iadd__``).  Reads stay legal.

The check is name-based, like RL004 and RL006, so the names are
reserved for the MKB across ``src/`` and ``tools/``.  Edits belong in a
``MetaKnowledgeBase`` method (``add_pc_constraint``,
``retract_pc_constraint``, the ``on_*`` evolution hooks); there is no
suppression comment.
"""

    def __init__(
        self,
        owner_module: str = DEFAULT_OWNER_MODULE,
        attrs: tuple[str, ...] = DEFAULT_ATTRS,
    ) -> None:
        self.owner_module = owner_module
        names = "|".join(map(re.escape, attrs))
        #: ``x._index`` or ``x._index[]...`` as a stored target.
        self._store = re.compile(rf"(^|\.)({names})(\[\])*$")
        #: ``x._index[]...<mutator>`` as a callee.
        self._call = re.compile(
            rf"(^|\.)({names})(\[\])*\.({'|'.join(MUTATORS)})$"
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
                        f"{written}: only {self.owner_module} writes the "
                        "MKB's constraint lists and index; go through a "
                        "MetaKnowledgeBase method",
                    )
