"""Property-based tests: the MKB stays consistent under change streams.

Random sequences of capability changes applied through the information
space must never leave dangling constraints (the MKB Consistency Checker
finds nothing), and retired knowledge must keep growing monotonically.
Interleaved with constraint additions (self-join constraints and
duplicates of live constraints among them), every per-relation lookup
the MKB serves from its relation index must equal a linear scan over
the live and retired constraint lists, in the same order — whether the
index was patched in place or rebuilt after a run of changes with no
lookup in between, and also after a pickle round trip.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintError
from repro.misd.constraints import (
    JoinConstraint,
    PCConstraint,
    PCRelationship,
    RelationFragment,
)
from repro.esql.parser import parse_condition_clause
from repro.relational.expressions import Condition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace

RELATIONS = ["R0", "R1", "R2", "R3"]
ATTRS = ["A", "B", "C"]


def build_space():
    space = InformationSpace()
    for index, name in enumerate(RELATIONS):
        space.add_source(f"IS{index}")
        space.register_relation(f"IS{index}", Relation(Schema(name, ATTRS)))
    # A web of constraints to stress the evolution hooks.
    for left, right in [("R0", "R1"), ("R1", "R2"), ("R2", "R3")]:
        space.mkb.add_join_constraint(
            JoinConstraint(
                left,
                right,
                Condition([parse_condition_clause(f"{left}.A = {right}.A")]),
            )
        )
        space.mkb.add_pc_constraint(
            PCConstraint(
                RelationFragment(left, ("A", "B")),
                RelationFragment(right, ("A", "B")),
                PCRelationship.SUBSET,
            )
        )
    return space


change_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["delete_relation", "delete_attribute", "rename_attribute",
             "rename_relation", "add_pc", "add_join", "dup_pc", "dup_join"]
        ),
        st.sampled_from(RELATIONS),
        st.sampled_from(ATTRS),
        st.integers(0, 999),
    ),
    max_size=8,
)


def add_duplicate(mkb, kind, nonce):
    """Re-add a live constraint picked by ``nonce``: the same object for
    even nonces, an equal copy for odd ones; False when none is live."""
    live = mkb.pc_constraints() if kind == "dup_pc" else mkb.join_constraints()
    if not live:
        return False
    constraint = live[nonce % len(live)]
    if nonce % 2:
        constraint = dataclasses.replace(constraint)
    if kind == "dup_pc":
        mkb.add_pc_constraint(constraint)
    else:
        mkb.add_join_constraint(constraint)
    return True


def add_constraint(mkb, kind, relation, attribute, nonce):
    """Add a PC or join constraint between two live relations (picked by
    ``relation``'s position and ``nonce``); False when none applies."""
    if kind in ("dup_pc", "dup_join"):
        return add_duplicate(mkb, kind, nonce)
    live = list(mkb)
    if not live:
        return False
    left = live[RELATIONS.index(relation) % len(live)]
    right = live[nonce % len(live)]
    if attribute not in mkb.schema(left) or attribute not in mkb.schema(right):
        return False
    if kind == "add_join":
        # left == right is allowed: a self-join constraint.
        clause = parse_condition_clause(f"{left}.{attribute} = {right}.{attribute}")
        mkb.add_join_constraint(JoinConstraint(left, right, Condition([clause])))
        return True
    if left == right:
        # A self-relation PC cannot even be built, so no MKB holds one.
        with pytest.raises(ConstraintError):
            PCConstraint(
                RelationFragment(left, (attribute,)),
                RelationFragment(right, (attribute,)),
                PCRelationship.SUBSET,
            )
        return False
    mkb.add_pc_constraint(
        PCConstraint(
            RelationFragment(left, (attribute,)),
            RelationFragment(right, (attribute,)),
            list(PCRelationship)[nonce % len(PCRelationship)],
        )
    )
    return True


def apply_ops(space, operations):
    """Apply each op when still applicable; returns #applied."""
    applied = 0
    for kind, relation, attribute, nonce in operations:
        if kind in ("add_pc", "add_join", "dup_pc", "dup_join"):
            applied += add_constraint(space.mkb, kind, relation, attribute, nonce)
            continue
        if not space.has_relation(relation):
            continue
        schema = space.relation(relation).schema
        try:
            if kind == "delete_relation":
                space.delete_relation(relation)
            elif kind == "delete_attribute":
                if attribute not in schema or schema.arity <= 1:
                    continue
                space.delete_attribute(relation, attribute)
            elif kind == "rename_attribute":
                if attribute not in schema:
                    continue
                space.rename_attribute(relation, attribute, f"{attribute}_{nonce}")
            else:
                space.rename_relation(relation, f"{relation}_{nonce}")
            applied += 1
        except Exception as exc:  # pragma: no cover - any raise is a bug
            raise AssertionError(
                f"{kind} on {relation}.{attribute} raised {exc!r}"
            ) from exc
    return applied


@given(change_ops)
@settings(max_examples=100, deadline=None)
def test_mkb_always_consistent_after_changes(operations):
    space = build_space()
    apply_ops(space, operations)
    problems = space.mkb.check_consistency()
    assert problems == [], problems


@given(change_ops)
@settings(max_examples=100, deadline=None)
def test_live_constraints_reference_live_schemas(operations):
    space = build_space()
    apply_ops(space, operations)
    mkb = space.mkb
    for jc in mkb.join_constraints():
        assert jc.left_relation in mkb
        assert jc.right_relation in mkb
    for pc in mkb.pc_constraints():
        for fragment in (pc.left, pc.right):
            schema = mkb.schema(fragment.relation)
            for name in fragment.attributes:
                assert name in schema


@given(change_ops)
@settings(max_examples=60, deadline=None)
def test_space_and_mkb_schemas_stay_synchronized(operations):
    space = build_space()
    apply_ops(space, operations)
    for name, relation in space.relations().items():
        assert space.mkb.schema(name) == relation.schema


@given(change_ops)
@settings(max_examples=60, deadline=None)
def test_historical_knowledge_never_shrinks(operations):
    space = build_space()
    mkb = space.mkb
    previous = 0
    for op in operations:
        apply_ops(space, [op])
        retired = len(mkb._historical_pc) + len(mkb._historical_join)
        assert retired >= previous
        previous = retired


# ----------------------------------------------------------------------
# Relation index vs linear scan
# ----------------------------------------------------------------------
def scanned_lookups(mkb, names):
    """Every per-relation lookup, answered by scanning the constraint
    lists: live before retired, insertion order within each."""
    live_pc, retired_pc = mkb.pc_constraints(), tuple(mkb._historical_pc)
    live_jc, retired_jc = mkb.join_constraints(), tuple(mkb._historical_join)
    answers = {}
    for name in names:
        sync_pc = tuple(
            dict.fromkeys(
                pc.oriented(name)
                for pc in (*live_pc, *retired_pc)
                if pc.involves(name)
            )
        )
        answers[name] = (
            tuple(pc for pc in live_pc if pc.involves(name)),
            tuple(jc for jc in live_jc if jc.involves(name)),
            tuple(
                dict.fromkeys(
                    jc.other(name) for jc in live_jc if jc.involves(name)
                )
            ),
            sync_pc,
            tuple(
                dict.fromkeys(
                    jc for jc in (*live_jc, *retired_jc) if jc.involves(name)
                )
            ),
            tuple(
                pc
                for pc in sync_pc
                if pc.right.relation in mkb and "A" in pc.left.attributes
            ),
        )
        for other in names:
            answers[name, other] = (
                next(
                    (
                        pc.oriented(name)
                        for pc in live_pc
                        if pc.involves(name) and pc.involves(other)
                    ),
                    None,
                ),
                next(
                    (
                        jc
                        for jc in live_jc
                        if jc.involves(name) and jc.involves(other)
                    ),
                    None,
                ),
            )
    return answers


def indexed_lookups(mkb, names):
    answers = {}
    for name in names:
        answers[name] = (
            mkb.pc_constraints(name),
            mkb.join_constraints(name),
            mkb.join_partners(name),
            mkb.sync_pc_constraints(name),
            mkb.sync_join_constraints(name),
            mkb.replacement_candidates(name, ["A"]),
        )
        for other in names:
            answers[name, other] = (
                mkb.pc_constraint_between(name, other),
                mkb.join_constraint_between(name, other),
            )
    return answers


@given(change_ops, st.lists(st.booleans(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_indexed_lookups_equal_linear_scan(operations, looks):
    """Looking up after an op keeps the index current, so the next
    constraint add or relation delete patches it; runs of ops with no
    lookup between them (``looks`` cycles) leave it stale after a
    rename, attribute delete or retraction, and the next lookup
    rebuilds it."""
    space = build_space()
    mkb = space.mkb
    seen = dict.fromkeys(RELATIONS)
    for position, op in enumerate(operations):
        apply_ops(space, [op])
        seen.update(dict.fromkeys(mkb))
        last = position == len(operations) - 1
        if not (last or looks[position % len(looks)]):
            continue
        names = list(seen)  # renamed-away and deleted names included
        expected = scanned_lookups(mkb, names)
        assert indexed_lookups(mkb, names) == expected
        copy = pickle.loads(pickle.dumps(mkb))
        assert indexed_lookups(copy, names) == expected


def test_index_patch_keeps_duplicates_and_self_joins_in_list_order():
    """Same-object and equal duplicates move together when a relation is
    deleted, and a self-join is listed once, patched or rebuilt."""
    space = build_space()
    mkb = space.mkb
    mkb.sync_pc_constraints("R1")  # current index: what follows patches
    r0_r1 = mkb.pc_constraints("R0")[0]
    mkb.add_pc_constraint(r0_r1)
    mkb.add_pc_constraint(
        PCConstraint(r0_r1.left, r0_r1.right, r0_r1.relationship)
    )
    self_join = JoinConstraint(
        "R1", "R1", Condition([parse_condition_clause("R1.A = R1.B")])
    )
    mkb.add_join_constraint(self_join)
    assert mkb._index_version == mkb.version  # patched, not stale
    assert mkb.join_constraints("R1")[-1] is self_join
    assert mkb.join_constraints("R1").count(self_join) == 1
    space.delete_relation("R1")
    assert mkb._index_version == mkb.version
    names = [*RELATIONS]
    patched = indexed_lookups(mkb, names)
    assert patched == scanned_lookups(mkb, names)
    assert mkb.sync_join_constraints("R1").count(self_join) == 1
    # Live-list order: R0/R1, R1/R2, then the same R0/R1 object again
    # and its equal copy.
    assert [pc == r0_r1 for pc in mkb._historical_pc] == [
        True, False, True, True,
    ]
    assert mkb._historical_pc[2] is r0_r1
    copy = pickle.loads(pickle.dumps(mkb))
    assert copy._index_version != copy.version
    assert indexed_lookups(copy, names) == patched


def test_index_is_left_out_of_the_pickled_state():
    mkb = build_space().mkb
    mkb.sync_pc_constraints("R1")  # build the index
    state = mkb.__getstate__()
    assert not {"_index", "_sync_pc", "_index_version"} & set(state)
    assert pickle.loads(pickle.dumps(mkb)).sync_pc_constraints(
        "R1"
    ) == mkb.sync_pc_constraints("R1")


def test_retract_pc_constraint_forgets_live_and_retired_knowledge():
    space = build_space()
    mkb = space.mkb
    r0_r1, r1_r2 = mkb.pc_constraints("R1")
    assert mkb.sync_pc_constraints("R0") == (r0_r1,)
    space.delete_relation("R0")  # retires the R0/R1 constraint
    assert mkb.sync_pc_constraints("R1")[1] == r0_r1.oriented("R1")
    mkb.retract_pc_constraint(r0_r1.oriented("R1"))
    assert mkb.sync_pc_constraints("R0") == ()
    assert mkb.sync_pc_constraints("R1") == (r1_r2.oriented("R1"),)
    mkb.retract_pc_constraint(r1_r2)
    assert mkb.pc_constraint_between("R1", "R2") is None
    assert mkb.pc_constraints("R1") == ()
