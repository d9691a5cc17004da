"""RL007: only the MKB edits its constraint lists and the index over them."""

from __future__ import annotations

from tools.repro_lint.rules import OwnedAttributesRule, register


@register
class MKBIndexRule(OwnedAttributesRule):
    code = "RL007"
    owner_module = "repro.misd.mkb"
    #: ``MetaKnowledgeBase``'s constraint lists and the derived index
    #: state.
    attrs = (
        "_pc_constraints",
        "_historical_pc",
        "_join_constraints",
        "_historical_join",
        "_index",
        "_sync_pc",
        "_index_version",
    )
    guarded = "the MKB's constraint lists and index"
    remedy = "a MetaKnowledgeBase method"
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
