"""The Meta Knowledge Base (MKB) — Sec. 3's central registry.

The MKB stores, for every relation registered by an information source:

* its schema (the type-integrity constraints of Fig. 4),
* which IS owns it,
* join constraints and PC constraints relating it to other relations,
* the statistics the cost/quality estimators need.

It also implements the *MKB consistency checker* of Fig. 1: constraints are
validated against the registered schemas at registration time, and the MKB
can be re-checked wholesale after schema changes (:meth:`check_consistency`).
When a capability change removes a relation or attribute, the MKB evolves
(:meth:`on_relation_deleted` etc.): constraints that mention deleted pieces
are themselves dropped, exactly like EVE's MKB Evolver.

Every candidate rewriting reads the constraints of the relation it
replaces, so per-relation lookups go through a relation -> constraints
index instead of scanning every live and retired constraint.  The index
is derived data, valid for the :attr:`MetaKnowledgeBase.version` it
was last brought to.  Mutators that only move whole constraints —
:meth:`~MetaKnowledgeBase.add_pc_constraint`,
:meth:`~MetaKnowledgeBase.add_join_constraint` and
:meth:`~MetaKnowledgeBase.on_relation_deleted` — patch it in place, and
mutators that touch no constraint list leave it as it is; both keep it
current across their ``version`` bump, so a salvage batch that deletes
one relation pays for that relation's constraints, not for the whole
knowledge base.  Renames, attribute deletes and
:meth:`~MetaKnowledgeBase.retract_pc_constraint` rewrite or filter the
lists wholesale: they leave the index stale, and the first lookup or
relation delete after them rebuilds it in one pass (as after
unpickling).  Lookups return
exactly what the linear scan would: live constraints before retired
ones, insertion order within each, and a self-join constraint once; the
``sync_*`` lookups then orient PC constraints from the looked-up
relation and de-duplicate with ``dict.fromkeys``.
Candidate generation walks these results in order, so the order fixes
every downstream tie-break.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import ConstraintError, UnknownRelationError
from repro.misd.constraints import (
    JoinConstraint,
    PCConstraint,
    PCRelationship,
    TypeIntegrityConstraint,
)
from repro.misd.statistics import RelationStatistics, SpaceStatistics
from repro.relational.schema import Schema


_LIVE_PC = "pc"
_RETIRED_PC = "retired-pc"
_LIVE_JOIN = "join"
_RETIRED_JOIN = "retired-join"


def _relations_of(constraint: PCConstraint | JoinConstraint) -> tuple[str, ...]:
    """The relations ``constraint`` is indexed under, each once (a
    self-join constraint is listed once, as the scan finds it once)."""
    if isinstance(constraint, PCConstraint):
        # PCConstraint rejects self-relations, so the names differ.
        return (constraint.left.relation, constraint.right.relation)
    left, right = constraint.left_relation, constraint.right_relation
    return (left,) if left == right else (left, right)


class MetaKnowledgeBase:
    """Registry of schemas, constraints and statistics for the space.

    Per-relation constraint lookups are answered from an index keyed by
    ``(kind, relation)`` — kind is live or retired, PC or join — that is
    valid while ``_index_version`` equals :attr:`version` (see the
    module docstring for the order contract); :meth:`sync_pc_constraints`
    results are memoized alongside it.  Constraint adds and relation
    deletes patch both in place, dropping only the memo entries of the
    relations they touched; the other constraint-editing mutators leave
    them stale and the next lookup rebuilds them.  Neither is pickled; a
    copy rebuilds them on first use.  Only this class edits the
    constraint lists, the index and the memo (repro-lint RL007) — use
    :meth:`retract_pc_constraint` rather than filtering them in place.
    """

    def __init__(self, statistics: SpaceStatistics | None = None) -> None:
        #: Bumped on every registration, constraint, or evolution change so
        #: memoized assessments keyed on it (see
        #: :mod:`repro.qc.assessment_cache`) never outlive the knowledge
        #: they were computed from.
        self.version = 0
        self._schemas: dict[str, Schema] = {}
        self._owners: dict[str, str] = {}
        self._join_constraints: list[JoinConstraint] = []
        self._pc_constraints: list[PCConstraint] = []
        # Constraints whose subject was deleted by a capability change are
        # *retired*, not forgotten: they still describe how the vanished
        # relation/attribute related to surviving ones, which is exactly the
        # knowledge the view synchronizer needs to find replacements.
        self._historical_join: list[JoinConstraint] = []
        self._historical_pc: list[PCConstraint] = []
        self._dropped_schemas: dict[str, Schema] = {}
        self.statistics = statistics if statistics is not None else SpaceStatistics()
        # Derived from the lists above, current while ``_index_version``
        # equals ``version`` (see :meth:`_indexed`); never pickled.  The
        # empty index of an empty MKB is current from the start.
        self._index: dict[tuple[str, str], list] = {}
        self._sync_pc: dict[str, tuple[PCConstraint, ...]] = {}
        self._index_version = self.version

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for derived in ("_index", "_sync_pc", "_index_version"):
            del state[derived]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index = {}
        self._sync_pc = {}
        self._index_version = -1

    def _indexed(self, kind: str, relation: str) -> Sequence:
        """Constraints of ``kind`` involving ``relation``, in list order."""
        self._refresh_index()
        return self._index.get((kind, relation), ())

    def _refresh_index(self) -> None:
        """Rebuild the index in one pass over the four constraint lists
        (and drop the :meth:`sync_pc_constraints` memo) if it is stale:
        after unpickling, or after a mutator that rewrote the lists."""
        if self._index_version != self.version:
            index: dict[tuple[str, str], list] = {}
            for key, constraints in (
                (_LIVE_PC, self._pc_constraints),
                (_RETIRED_PC, self._historical_pc),
                (_LIVE_JOIN, self._join_constraints),
                (_RETIRED_JOIN, self._historical_join),
            ):
                for constraint in constraints:
                    for name in _relations_of(constraint):
                        index.setdefault((key, name), []).append(constraint)
            self._index = index
            self._sync_pc = {}
            self._index_version = self.version

    def _advance(self) -> bool:
        """Bump :attr:`version`, carrying a current index along.

        For mutators that leave the constraint lists alone or patch the
        index for what they change; returns whether the index was
        current (and so must be patched).
        """
        current = self._index_version == self.version
        self.version += 1
        if current:
            self._index_version = self.version
        return current

    def _file(self, kind: str, constraint: PCConstraint | JoinConstraint) -> None:
        """Append ``constraint`` to its ``kind`` buckets (index patch)."""
        for name in _relations_of(constraint):
            self._index.setdefault((kind, name), []).append(constraint)
            if kind in (_LIVE_PC, _RETIRED_PC):
                self._sync_pc.pop(name, None)

    def _retire_involving(
        self, relation: str, live_kind: str, retired_kind: str,
        live: list, retired: list,
    ) -> list:
        """Move ``live``'s constraints involving ``relation``, in order,
        to the end of ``retired``, and patch the (current) index for
        them; returns what stays live.

        The index's ``relation`` bucket names the movers in list order,
        so only the buckets of the relations they involve are touched.
        """
        moved = self._index.pop((live_kind, relation), None)
        if not moved:
            return live
        retired.extend(moved)
        gone = set(map(id, moved))
        partners = dict.fromkeys(
            name
            for constraint in moved
            for name in _relations_of(constraint)
            if name != relation
        )
        for name in partners:
            key = (live_kind, name)
            kept = [c for c in self._index[key] if id(c) not in gone]
            if kept:
                self._index[key] = kept
            else:
                del self._index[key]
        for constraint in moved:
            self._file(retired_kind, constraint)
        return [c for c in live if id(c) not in gone]

    def _snapshot_schema(self, relation: str, schema: Schema) -> None:
        """Record a pre-change snapshot, merging with earlier snapshots.

        Capability changes may arrive in composed batches: a relation can
        lose two attributes before any affected view is synchronized.
        Overwriting the snapshot would forget the first attribute and
        leave the view unresolvable, so snapshots accumulate — every
        attribute name the relation ever offered stays resolvable.  Live
        views never reference an attribute retired before their last
        synchronization, so the extra names are unreachable from them.
        """
        previous = self._dropped_schemas.get(relation)
        if previous is not None:
            for attribute in previous:
                if attribute.name not in schema:
                    schema = schema.add_attribute(attribute)
        self._dropped_schemas[relation] = schema

    # ------------------------------------------------------------------
    # Schema registration (IS registration, Sec. 3)
    # ------------------------------------------------------------------
    def register_relation(
        self,
        schema: Schema,
        source: str,
        statistics: RelationStatistics | None = None,
    ) -> None:
        """Register ``IS.R(A_1,...,A_n)`` with optional statistics."""
        self._advance()
        if schema.name in self._schemas:
            raise ConstraintError(
                f"relation {schema.name!r} is already registered "
                f"(by {self._owners[schema.name]!r})"
            )
        self._schemas[schema.name] = schema
        self._owners[schema.name] = source
        if statistics is not None:
            self.statistics.register(schema.name, statistics)

    def deregister_relation(self, relation: str) -> None:
        """Remove the schema/owner entries.

        Statistics are deliberately retained: the quality model still needs
        the deleted relation's cardinality to size the *original* view
        extent it compares rewritings against.
        """
        self._advance()
        self._require(relation)
        del self._schemas[relation]
        del self._owners[relation]

    def _require(self, relation: str) -> Schema:
        try:
            return self._schemas[relation]
        except KeyError:
            raise UnknownRelationError(relation, "MKB") from None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._schemas)

    def __contains__(self, relation: str) -> bool:
        return relation in self._schemas

    def schema(self, relation: str) -> Schema:
        return self._require(relation)

    def schemas(self) -> dict[str, Schema]:
        """Snapshot of all registered schemas (name -> schema)."""
        return dict(self._schemas)

    def owner(self, relation: str) -> str:
        self._require(relation)
        return self._owners[relation]

    def relations_of_source(self, source: str) -> tuple[str, ...]:
        return tuple(
            name for name, owner in self._owners.items() if owner == source
        )

    def type_constraints(self, relation: str) -> tuple[TypeIntegrityConstraint, ...]:
        """The TC constraints implied by the registered schema."""
        schema = self._require(relation)
        return tuple(
            TypeIntegrityConstraint(relation, attr.name, attr.type)
            for attr in schema
        )

    # ------------------------------------------------------------------
    # Join constraints
    # ------------------------------------------------------------------
    def add_join_constraint(self, constraint: JoinConstraint) -> None:
        patch = self._advance()
        left = self._require(constraint.left_relation)
        right = self._require(constraint.right_relation)
        for ref in constraint.condition.attribute_refs():
            owner = ref.relation
            if owner == constraint.left_relation:
                left.attribute(ref.attribute)
            elif owner == constraint.right_relation:
                right.attribute(ref.attribute)
            elif owner is None:
                if ref.attribute not in left and ref.attribute not in right:
                    raise ConstraintError(
                        f"{constraint}: attribute {ref.attribute!r} not found "
                        "in either relation"
                    )
        self._join_constraints.append(constraint)
        if patch:
            self._file(_LIVE_JOIN, constraint)

    def join_constraints(
        self, relation: str | None = None
    ) -> tuple[JoinConstraint, ...]:
        """All join constraints, or only those involving ``relation``."""
        if relation is None:
            return tuple(self._join_constraints)
        return tuple(self._indexed(_LIVE_JOIN, relation))

    def join_constraint_between(
        self, left: str, right: str
    ) -> JoinConstraint | None:
        """The constraint relating the two relations, in either order."""
        for jc in self._indexed(_LIVE_JOIN, left):
            if jc.involves(right):
                return jc
        return None

    def join_partners(self, relation: str) -> tuple[str, ...]:
        """Relations meaningfully joinable with ``relation``."""
        return tuple(
            dict.fromkeys(
                jc.other(relation)
                for jc in self._indexed(_LIVE_JOIN, relation)
            )
        )

    # ------------------------------------------------------------------
    # PC constraints
    # ------------------------------------------------------------------
    def add_pc_constraint(self, constraint: PCConstraint) -> None:
        patch = self._advance()
        left = self._require(constraint.left.relation)
        right = self._require(constraint.right.relation)
        constraint.check_against(left, right)
        self._pc_constraints.append(constraint)
        if patch:
            self._file(_LIVE_PC, constraint)

    def pc_constraints(
        self, relation: str | None = None
    ) -> tuple[PCConstraint, ...]:
        """All PC constraints, or only those involving ``relation``."""
        if relation is None:
            return tuple(self._pc_constraints)
        return tuple(self._indexed(_LIVE_PC, relation))

    def pc_constraints_from(self, relation: str) -> tuple[PCConstraint, ...]:
        """PC constraints re-oriented so ``relation`` is on the left."""
        return tuple(
            pc.oriented(relation) for pc in self.pc_constraints(relation)
        )

    def pc_constraint_between(
        self, from_relation: str, to_relation: str
    ) -> PCConstraint | None:
        """The constraint between the two, oriented from -> to, if any."""
        for pc in self._indexed(_LIVE_PC, from_relation):
            if pc.involves(to_relation):
                return pc.oriented(from_relation)
        return None

    def retract_pc_constraint(self, constraint: PCConstraint) -> None:
        """Forget ``constraint`` (in either orientation) from live and
        retired knowledge alike.

        Unlike a capability change, which retires constraints, this
        removes the knowledge outright — e.g. to model a space where a
        substitution target carries no PC constraint at all.
        """
        self.version += 1
        forms = {
            constraint,
            constraint.oriented(constraint.right.relation),
        }
        self._pc_constraints = [
            pc for pc in self._pc_constraints if pc not in forms
        ]
        self._historical_pc = [
            pc for pc in self._historical_pc if pc not in forms
        ]

    def substitute_candidates(
        self, relation: str, required_attributes: Iterable[str] = ()
    ) -> tuple[PCConstraint, ...]:
        """PC constraints offering a replacement for ``relation``.

        Returns constraints oriented ``relation REL candidate`` whose left
        projection covers all ``required_attributes`` — the raw material for
        CVS-style relation substitution.
        """
        required = set(required_attributes)
        candidates = []
        for pc in self.pc_constraints_from(relation):
            if required <= set(pc.left.attributes):
                candidates.append(pc)
        return tuple(candidates)

    # ------------------------------------------------------------------
    # Synchronization-time lookup (live + retired knowledge)
    # ------------------------------------------------------------------
    def historical_schema(self, relation: str) -> Schema:
        """The union of the live schema and its pre-change snapshot.

        The synchronizer resolves the *affected* view against this: the
        view may still reference an attribute a change just removed or
        renamed (snapshot-only names), while other parts of it already use
        current names (live names).  For deleted relations the snapshot is
        all that remains.
        """
        if relation not in self._schemas:
            if relation in self._dropped_schemas:
                return self._dropped_schemas[relation]
            raise UnknownRelationError(relation, "MKB (including history)")
        live = self._schemas[relation]
        snapshot = self._dropped_schemas.get(relation)
        if snapshot is None:
            return live
        merged = live
        for attribute in snapshot:
            if attribute.name not in merged:
                merged = merged.add_attribute(attribute)
        return merged

    def sync_pc_constraints(self, relation: str) -> tuple[PCConstraint, ...]:
        """Live + retired PC constraints involving ``relation``, oriented
        with ``relation`` on the left."""
        self._refresh_index()
        found = self._sync_pc.get(relation)
        if found is None:
            found = self._sync_pc[relation] = tuple(
                dict.fromkeys(
                    pc.oriented(relation)
                    for kind in (_LIVE_PC, _RETIRED_PC)
                    for pc in self._indexed(kind, relation)
                )
            )
        return found

    def sync_join_constraints(self, relation: str) -> tuple[JoinConstraint, ...]:
        """Live + retired join constraints involving ``relation``."""
        return tuple(
            dict.fromkeys(
                (
                    *self._indexed(_LIVE_JOIN, relation),
                    *self._indexed(_RETIRED_JOIN, relation),
                )
            )
        )

    def replacement_candidates(
        self, relation: str, required_attributes: Iterable[str] = ()
    ) -> tuple[PCConstraint, ...]:
        """PC constraints (live or retired) offering a *currently available*
        replacement for ``relation`` whose left projection covers all
        ``required_attributes``."""
        required = set(required_attributes)
        candidates = []
        for pc in self.sync_pc_constraints(relation):
            if pc.right.relation not in self._schemas:
                continue  # the candidate itself is gone
            if required <= set(pc.left.attributes):
                candidates.append(pc)
        return tuple(candidates)

    # ------------------------------------------------------------------
    # Consistency checking (the MKB Consistency Checker of Fig. 1)
    # ------------------------------------------------------------------
    def check_consistency(self) -> list[str]:
        """Validate every constraint against current schemas.

        Returns a list of human-readable problems (empty = consistent);
        does not raise, so callers can report all issues at once.
        """
        problems: list[str] = []
        for jc in self._join_constraints:
            for name in (jc.left_relation, jc.right_relation):
                if name not in self._schemas:
                    problems.append(f"{jc}: relation {name!r} no longer exists")
                    break
            else:
                for ref in jc.condition.attribute_refs():
                    owner = ref.relation
                    schemas = (
                        [self._schemas[owner]]
                        if owner in self._schemas
                        else [
                            self._schemas[jc.left_relation],
                            self._schemas[jc.right_relation],
                        ]
                    )
                    if not any(ref.attribute in s for s in schemas):
                        problems.append(
                            f"{jc}: attribute {ref} no longer exists"
                        )
        for pc in self._pc_constraints:
            try:
                left = self._schemas[pc.left.relation]
                right = self._schemas[pc.right.relation]
            except KeyError as exc:
                problems.append(f"{pc}: relation {exc.args[0]!r} no longer exists")
                continue
            try:
                pc.check_against(left, right)
            except Exception as exc:  # noqa: BLE001 - collecting, not handling
                problems.append(str(exc))
        return problems

    # ------------------------------------------------------------------
    # MKB evolution under capability changes (the MKB Evolver of Fig. 1)
    # ------------------------------------------------------------------
    def on_relation_deleted(self, relation: str) -> None:
        """Drop the relation; retire (don't discard) constraints touching it.

        The index is brought current first (rebuilt, if a rename or the
        like left it stale) and then patched for the retired constraints.
        """
        self._refresh_index()
        self._advance()
        if relation in self._schemas:
            self._snapshot_schema(relation, self._schemas[relation])
            self.deregister_relation(relation)
        self._join_constraints = self._retire_involving(
            relation, _LIVE_JOIN, _RETIRED_JOIN,
            self._join_constraints, self._historical_join,
        )
        self._pc_constraints = self._retire_involving(
            relation, _LIVE_PC, _RETIRED_PC,
            self._pc_constraints, self._historical_pc,
        )

    def on_relation_renamed(self, old: str, new: str) -> None:
        """Re-point the schema entry and rewrite constraints in place."""
        self.version += 1
        schema = self._require(old)
        if new in self._schemas:
            raise ConstraintError(f"relation name {new!r} already registered")
        # Views still referencing the old name resolve via the snapshot.
        self._snapshot_schema(old, schema)
        owner = self._owners[old]
        del self._schemas[old]
        del self._owners[old]
        self._schemas[new] = schema.rename_relation(new)
        self._owners[new] = owner
        self.statistics.rename_relation(old, new)

        def rename_in_jc(jc: JoinConstraint) -> JoinConstraint:
            if not jc.involves(old):
                return jc
            return JoinConstraint(
                new if jc.left_relation == old else jc.left_relation,
                new if jc.right_relation == old else jc.right_relation,
                jc.condition.with_relation_replaced(old, new),
            )

        def rename_in_pc(pc: PCConstraint) -> PCConstraint:
            if not pc.involves(old):
                return pc
            left, right = pc.left, pc.right
            if left.relation == old:
                left = type(left)(
                    new, left.attributes,
                    left.condition.with_relation_replaced(old, new),
                )
            if right.relation == old:
                right = type(right)(
                    new, right.attributes,
                    right.condition.with_relation_replaced(old, new),
                )
            return PCConstraint(left, right, pc.relationship)

        self._join_constraints = [rename_in_jc(jc) for jc in self._join_constraints]
        self._pc_constraints = [rename_in_pc(pc) for pc in self._pc_constraints]
        # Retired constraints must follow the rename too: they still route
        # replacements from vanished relations to this (live) one, and a
        # stale name would silently disable those routes — visible when a
        # composed batch deletes a relation and then renames its donor.
        self._historical_join = [
            rename_in_jc(jc) for jc in self._historical_join
        ]
        self._historical_pc = [
            rename_in_pc(pc) for pc in self._historical_pc
        ]

    def on_attribute_deleted(self, relation: str, attribute: str) -> None:
        """Shrink the schema; retire constraints that referenced the attribute."""
        self.version += 1
        schema = self._require(relation)
        self._snapshot_schema(relation, schema)
        self._schemas[relation] = schema.drop_attribute(attribute)

        def jc_survives(jc: JoinConstraint) -> bool:
            return not (
                jc.involves(relation)
                and any(
                    ref.matches(attribute, relation)
                    or (ref.relation is None and ref.attribute == attribute)
                    for ref in jc.condition.attribute_refs()
                )
            )

        self._historical_join.extend(
            jc for jc in self._join_constraints if not jc_survives(jc)
        )
        self._join_constraints = [
            jc for jc in self._join_constraints if jc_survives(jc)
        ]

        def pc_survives(pc: PCConstraint) -> bool:
            for fragment in (pc.left, pc.right):
                if fragment.relation != relation:
                    continue
                if attribute in fragment.attributes:
                    return False
                if any(
                    ref.matches(attribute, relation)
                    for ref in fragment.condition.attribute_refs()
                ):
                    return False
            return True

        self._historical_pc.extend(
            pc for pc in self._pc_constraints if not pc_survives(pc)
        )
        self._pc_constraints = [
            pc for pc in self._pc_constraints if pc_survives(pc)
        ]

    def on_attribute_added(self, relation: str, schema: Schema) -> None:
        """Record the grown schema (constraints are unaffected)."""
        self._advance()
        self._require(relation)
        self._schemas[relation] = schema

    def on_attribute_renamed(self, relation: str, old: str, new: str) -> None:
        """Rename inside the schema and rewrite constraints that use it."""
        self.version += 1
        schema = self._require(relation)
        self._snapshot_schema(relation, schema)  # pre-change snapshot
        self._schemas[relation] = schema.rename_attribute(old, new)
        attribute_map = {old: new}

        def rename_in_jc(jc: JoinConstraint) -> JoinConstraint:
            if not jc.involves(relation):
                return jc
            return JoinConstraint(
                jc.left_relation,
                jc.right_relation,
                jc.condition.with_relation_replaced(
                    relation, relation, attribute_map
                ),
            )

        def rename_fragment(fragment, owner_matches: bool):
            if not owner_matches:
                return fragment
            attributes = tuple(
                new if name == old else name for name in fragment.attributes
            )
            condition = fragment.condition.with_relation_replaced(
                relation, relation, attribute_map
            )
            return type(fragment)(fragment.relation, attributes, condition)

        def rename_in_pc(pc: PCConstraint) -> PCConstraint:
            if not pc.involves(relation):
                return pc
            return PCConstraint(
                rename_fragment(pc.left, pc.left.relation == relation),
                rename_fragment(pc.right, pc.right.relation == relation),
                pc.relationship,
            )

        self._join_constraints = [rename_in_jc(jc) for jc in self._join_constraints]
        self._pc_constraints = [rename_in_pc(pc) for pc in self._pc_constraints]
        # Keep retired routes pointing at the live column name (see
        # :meth:`on_relation_renamed`).
        self._historical_join = [
            rename_in_jc(jc) for jc in self._historical_join
        ]
        self._historical_pc = [
            rename_in_pc(pc) for pc in self._historical_pc
        ]

    # ------------------------------------------------------------------
    # Convenience constructors for common constraint shapes
    # ------------------------------------------------------------------
    def add_equivalence(
        self, left: str, right: str, attributes: Iterable[str] | None = None
    ) -> PCConstraint:
        """Register ``pi_A(left) ≡ pi_A(right)`` over shared attributes."""
        return self._add_simple_pc(left, right, attributes, PCRelationship.EQUIVALENT)

    def add_containment(
        self, inner: str, outer: str, attributes: Iterable[str] | None = None
    ) -> PCConstraint:
        """Register ``pi_A(inner) ⊆ pi_A(outer)`` over shared attributes."""
        return self._add_simple_pc(inner, outer, attributes, PCRelationship.SUBSET)

    def _add_simple_pc(
        self,
        left: str,
        right: str,
        attributes: Iterable[str] | None,
        relationship: PCRelationship,
    ) -> PCConstraint:
        from repro.misd.constraints import RelationFragment

        left_schema = self._require(left)
        right_schema = self._require(right)
        if attributes is None:
            names = tuple(left_schema.common_attributes(right_schema))
            if not names:
                raise ConstraintError(
                    f"relations {left!r} and {right!r} share no attributes"
                )
            left_names = right_names = names
        else:
            left_names = right_names = tuple(attributes)
        constraint = PCConstraint(
            RelationFragment(left, left_names),
            RelationFragment(right, right_names),
            relationship,
        )
        self.add_pc_constraint(constraint)
        return constraint

    def __repr__(self) -> str:
        return (
            f"<MKB {len(self._schemas)} relations, "
            f"{len(self._join_constraints)} JCs, "
            f"{len(self._pc_constraints)} PCs>"
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._schemas)
