"""RL008: only the relation module writes a relation's rows and the
structures derived from them."""

from __future__ import annotations

from tools.repro_lint.rules import OwnedAttributesRule, register


@register
class RelationStateRule(OwnedAttributesRule):
    code = "RL008"
    owner_module = "repro.relational.relation"
    #: ``Relation``'s row list and the structures derived from it.
    attrs = ("_rows", "_locator", "_tail", "_indexes")
    guarded = "a relation's rows and derived structures"
    remedy = "a Relation method"
    summary = (
        "only relational/relation.py writes a relation's rows, delete "
        "locator, tail and hash indexes"
    )
    explain = """\
A ``Relation`` keeps three structures in step with its row list: the
hash indexes (``_indexes``) and the delete locator (``_locator``, one fingerprint character per row)
with its pending ``_tail`` of fingerprints of rows inserted since the
last delete.  ``insert``, ``delete`` and the one-pass run of both,
``apply_run``, update all of them together: a run leaves deleted rows
in place until it ends and then cuts them out of the rows and the
locator in one pass.  A write from anywhere else — appending to
``relation._rows``, deleting an item of it, resetting ``_locator`` or
clearing ``_indexes`` — skips that bookkeeping: the locator's
characters stop lining up with the rows, so a later delete confirms the
wrong slot or misses a live row, an index probe returns a row that is
gone, and extents and the modeled counters drift with no error.

RL008 flags, in every module except ``repro.relational.relation``, any
in-place write to ``_rows``, ``_locator``, ``_tail`` or ``_indexes``:
assignment, augmented assignment or ``del`` of the
attribute or one of its items, and calls of the list, dict and array
writing methods (``append``, ``extend``, ``insert``, ``remove``,
``pop``, ``popitem``, ``clear``, ``sort``, ``reverse``, ``update``,
``setdefault``, ``__setitem__``, ``__delitem__``, ``__iadd__``).  Reads
stay legal.

The check is name-based, like RL004, RL006 and RL007, so the names are
reserved for ``Relation`` across ``src/`` and ``tools/``.  Writes
belong in a ``Relation`` method (``insert``, ``delete``, ``apply_run``,
the bulk mutations); there is no suppression comment.
"""
