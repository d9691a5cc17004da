"""Incremental view maintenance — Algorithm 1, executed for real.

The :class:`ViewMaintainer` keeps materialized view extents up to date
after data-content updates, following the non-concurrent protocol of
Sec. 6.1:

1. An IS notifies the warehouse of a one-tuple insert/delete.
2. The maintainer visits each involved source in plan order, sending the
   current delta down as a single-site query and receiving the joined
   delta back (one message each way, bytes = tuples x accumulated width).
3. The final delta is projected onto the view interface and applied to the
   materialized extent (inserts append; deletes remove).

All three cost factors are *measured* via
:class:`~repro.maintenance.counters.MaintenanceCounters`: each message's
byte payload is the actual delta size, and per-source I/O charges the
min(full scan, per-delta-tuple index probes) rule of Appendix A against
the real matching-tuple counts.

Three delta representations execute the sweep:

* ``representation="tuple"`` (default) — the compiled positional-tuple
  plane of :mod:`repro.maintenance.delta`: deltas travel as
  :class:`~repro.maintenance.delta.DeltaBatch` es, residual WHERE
  conjuncts compile once per (condition, bound-column layout), and index
  probes yield tuples directly.
* ``representation="columnar"`` — deltas travel as
  :class:`~repro.maintenance.delta.ColumnBatch` es of parallel
  per-column lists; WHERE conjuncts run as selection-vector kernels and
  equijoins as vectorized position-index probes, with rows scanned vs
  selected recorded in :attr:`ViewMaintainer.kernel_counters`.
* ``representation="dict"`` — the original per-row binding dicts with
  per-candidate clause interpretation, retained as the equivalence
  reference (pair with ``use_index=False`` for the fully naive path).

All representations accept the same delta rows in the same order and
record byte-identical modeled CF_M/CF_T/CF_IO counters — enforced by
``tests/property/test_delta_parity.py`` and
``tests/property/test_columnar_parity.py``.

:meth:`ViewMaintainer.maintain_batch` additionally streams a whole
:class:`~repro.space.updates.DataUpdate` batch through one compiled
pipeline, and provenance tags recover the per-update cardinalities every
message/IO charge needs — so the batch path's counters equal the
per-update loop's exactly.

What Algorithm 1 fixes per view — the resolved condition and
projection, and per updated relation the itinerary, the seed filter,
the per-source steps and the final projection — is compiled once into a
maintenance program and kept across calls.  A program depends only on
the definition's name-free shape
(:func:`~repro.esql.ast.coalesce_fingerprint`) and on the owner and
schema of each of its relations, its
:meth:`~repro.space.space.InformationSpace.placement`; views of the same
shape under the same placement share one program.  Each call re-checks
the program against the definition object and against
:attr:`~repro.relational.catalog.Catalog.epoch`, which every catalog
write bumps: only when the epoch moved and one of the view's own
relation names was stamped by a write since the program was last
confirmed (:meth:`~repro.relational.catalog.Catalog.stamp`) is the
placement recomputed and compared.  Capability changes, rewritings and
out-of-band catalog edits all land there, with no invalidation hook to
miss.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import itemgetter
from typing import Any

from repro.config import MaintenanceConfig
from repro.errors import MaintenanceError
from repro.esql.ast import ViewDefinition, coalesce_fingerprint
from repro.esql.validate import ViewValidator
from repro.misd.statistics import SpaceStatistics
from repro.qc.cost import plan_for_view
from repro.relational.catalog import Catalog
from repro.relational.expressions import Condition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.source import Binding, clause_decidable
from repro.space.space import InformationSpace, Placement, placement_maps
from repro.space.updates import DataUpdate, UpdateKind
from repro.relational.columnar import KernelCounters
from repro.maintenance.counters import MaintenanceCounters
from repro.maintenance.delta import (
    ColumnBatch,
    DeltaBatch,
    SeedPlan,
    seed_columns,
    seed_plan,
)

#: Per-update relation-cardinality overlays for modeled-cost pricing:
#: one mapping per update, consulted instead of the live catalog so a
#: deferred flush prices exactly what the sequential protocol saw.
SizeOverlays = Sequence[Mapping[str, int] | None] | None


class _UpdatePath:
    """Algorithm 1's sweep for updates at one relation of a view."""

    __slots__ = ("seed", "schema", "steps", "project")

    def __init__(
        self,
        seed: SeedPlan,
        schema: Schema,
        steps: tuple[tuple[tuple[str, ...], str, int], ...],
        project: Callable[[Any], Any],
    ) -> None:
        self.seed = seed
        #: The updated relation's schema.
        self.schema = schema
        #: Per queried source, in visit order: the relations joined
        #: there, the IS name and the width they add to the delta.
        self.steps = steps
        #: Picks the view's columns, in SELECT order, out of a row of
        #: the sweep's final delta layout (or out of a columnar batch's
        #: column list), as a tuple.
        self.project = project


class _ViewProgram:
    """A compiled maintenance program for one definition shape.

    Valid for every view whose definition has the program's
    :func:`~repro.esql.ast.coalesce_fingerprint` under the program's
    :data:`Placement`: none of it depends on the view's name, so
    structurally identical views share one.  The sweep for updates at
    a relation is compiled on the first update there.
    """

    __slots__ = (
        "definition", "placement", "condition", "keys", "paths",
        "__weakref__",
    )

    def __init__(
        self, definition: ViewDefinition, placement: Placement
    ) -> None:
        #: The definition the program was compiled from (any view of
        #: the same shape compiles to the same program).
        self.definition = definition
        self.placement = placement
        _, schemas = placement_maps(definition.relation_names, placement)
        resolved = ViewValidator(schemas).resolve_view(definition)
        if resolved == definition:
            # Written fully qualified: the program shares the
            # definition's clause objects instead of holding copies.
            resolved = definition
        self.condition: Condition = resolved.condition()
        #: The delta columns the view projects.
        self.keys = tuple(
            sys.intern(str(item.ref)) for item in resolved.select
        )
        #: One sweep per FROM relation, in FROM order, compiled on the
        #: first update at that relation (a list: most views have one
        #: or two relations, and a dict would cost more than the rest).
        self.paths: list[_UpdatePath | None] = [None] * len(placement)

    def path(self, relation: str) -> _UpdatePath:
        slot = self.definition.relation_names.index(relation)
        path = self.paths[slot]
        if path is None:
            owners, schemas = placement_maps(
                self.definition.relation_names, self.placement
            )
            plan = plan_for_view(self.definition, owners, relation)
            steps = []
            # The sweep's final delta layout: the updated relation's
            # columns, then each joined relation's in visit order.
            layout = list(seed_columns(relation, schemas[relation]))
            for index, group in enumerate(plan.groups):
                local = (
                    plan.first_source_other_relations
                    if index == 0
                    else group.relations
                )
                if local:  # no query to the updating source (footnote 12)
                    width = sum(schemas[n].tuple_byte_size() for n in local)
                    steps.append((local, group.source, width))
                    for name in local:
                        layout.extend(seed_columns(name, schemas[name]))
            positions = [layout.index(key) for key in self.keys]
            # ``itemgetter`` of one position returns the bare item; a
            # one-wide slice keeps the result a tuple (or a one-column
            # list) like the wider getters.
            project = (
                itemgetter(slice(positions[0], positions[0] + 1))
                if len(positions) == 1
                else itemgetter(*positions)
            )
            schema = schemas[relation]
            path = self.paths[slot] = _UpdatePath(
                seed_plan(self.condition, relation, schema),
                schema,
                tuple(steps),
                project,
            )
        return path


class _Held:
    """A view name's hold on its program: the definition it was
    checked for, and the :attr:`~repro.relational.catalog.Catalog.epoch`
    at which its placement was last confirmed."""

    __slots__ = ("definition", "epoch", "program")

    def __init__(
        self, definition: ViewDefinition, epoch: int, program: _ViewProgram
    ) -> None:
        self.definition = definition
        self.epoch = epoch
        self.program = program


def _unmoved(held: _Held, epoch: int) -> bool:
    """Whether no catalog write touched one of the held definition's
    relation names since ``held`` was confirmed; if so, ``held`` is
    confirmed again at ``epoch`` (the current :attr:`Catalog.epoch`)."""
    if held.epoch == epoch:
        return True
    if all(
        Catalog.stamp(name) <= held.epoch
        for name in held.definition.relation_names
    ):
        held.epoch = epoch
        return True
    return False


class ViewMaintainer:
    """Executes Algorithm 1 against a simulated information space.

    Configured with a :class:`~repro.config.MaintenanceConfig` slice.
    """

    def __init__(
        self,
        space: InformationSpace,
        statistics: SpaceStatistics | None = None,
        config: MaintenanceConfig | None = None,
    ) -> None:
        self.config = config if config is not None else MaintenanceConfig()
        self._space = space
        self._statistics = (
            statistics if statistics is not None else space.mkb.statistics
        )
        # How single-site queries are *executed* (index probes vs nested
        # loops, tuple batches vs binding dicts); the modeled cost
        # counters are identical across all four combinations.
        self._use_index = self.config.use_index
        self._representation = self.config.representation
        self.counters = MaintenanceCounters()
        #: Columnar-plane observability: rows scanned vs selected per
        #: column kernel.  The row planes never record into it.
        self.kernel_counters = KernelCounters()
        #: view name -> its hold on a compiled program (see
        #: :meth:`_program`); :meth:`forget` drops a dead view's.
        self._programs: dict[str, _Held] = {}
        #: (definition fingerprint, placement) -> the program every view
        #: of that shape shares.  The view names hold the programs, so
        #: an entry lives exactly as long as some view uses it.
        self._shared: weakref.WeakValueDictionary[
            tuple[str, Placement], _ViewProgram
        ] = weakref.WeakValueDictionary()

    @property
    def representation(self) -> str:
        return self._representation

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def maintain(
        self,
        view: ViewDefinition,
        extent: Relation,
        update: DataUpdate,
    ) -> MaintenanceCounters:
        """Bring ``extent`` up to date after ``update``; returns the
        counters for this single update."""
        if update.relation not in view.relation_names:
            raise MaintenanceError(
                f"update at {update.relation!r} does not affect view "
                f"{view.name!r}"
            )
        before = self.counters.snapshot()
        program = self._program(view)
        self._run(view.name, program, update.relation, extent, [update])
        return self.counters.diff(before)

    def maintain_batch(
        self,
        view: ViewDefinition,
        extent: Relation,
        updates: Iterable[DataUpdate],
        relation_sizes: SizeOverlays = None,
    ) -> MaintenanceCounters:
        """Stream a whole update batch through the compiled pipeline.

        The view's compiled program serves every run; consecutive
        updates at the same relation propagate as one tagged
        :class:`~repro.maintenance.delta.DeltaBatch` whose provenance
        recovers per-update cardinalities, so the modeled counters are
        byte-identical to calling :meth:`maintain` per update.

        Updates must already be applied to their source relations (the
        same contract as :meth:`maintain`).  Equivalence with the
        sequential per-update protocol additionally requires that no
        update in the batch targets a relation an *earlier* update's
        propagation actually joins against — an update's own relation is
        never joined, so any single-relation stream qualifies, and
        :meth:`~repro.core.eve.EVESystem.apply_updates` flushes mixed
        streams at exactly the boundaries where the guarantee would
        break (its join-graph analysis proves the safe interleavings).

        ``relation_sizes`` (optional) supplies one cardinality overlay
        per update — relation name to the cardinality the *sequential*
        protocol would have priced I/O against.  A caller that batches
        across a proven-unjoinable foreign update passes the enqueue-time
        snapshot so the Appendix A ``min(scan, probe)`` charges stay
        byte-identical to the per-update reference even though the
        catalog has since moved on.  ``None`` (or a ``None`` entry)
        prices against the live catalog.
        """
        batch = list(updates)
        for update in batch:
            if update.relation not in view.relation_names:
                raise MaintenanceError(
                    f"update at {update.relation!r} does not affect view "
                    f"{view.name!r}"
                )
        overlays = (
            list(relation_sizes) if relation_sizes is not None else None
        )
        if overlays is not None and len(overlays) != len(batch):
            raise MaintenanceError(
                f"relation_sizes carries {len(overlays)} overlay(s) for "
                f"{len(batch)} update(s)"
            )
        before = self.counters.snapshot()
        if batch:
            program = self._program(view)
            # Split the stream into same-relation runs by index.
            start, end = 0, len(batch)
            while start < end:
                relation = batch[start].relation
                stop = start + 1
                while stop < end and batch[stop].relation == relation:
                    stop += 1
                whole = start == 0 and stop == end
                self._run(
                    view.name,
                    program,
                    relation,
                    extent,
                    batch if whole else batch[start:stop],
                    overlays if whole or overlays is None
                    else overlays[start:stop],
                )
                start = stop
        return self.counters.diff(before)

    def placement_of(self, view: ViewDefinition) -> Placement:
        """``view``'s current placement: its held program's, when no
        catalog write touched one of its relations since the program was
        last confirmed, and recomputed otherwise."""
        held = self._programs.get(view.name)
        if (
            held is not None
            and held.definition is view
            and _unmoved(held, Catalog.epoch)
        ):
            return held.program.placement
        return self._space.placement(view.relation_names)

    def forget(self, view_name: str) -> None:
        """Drop ``view_name``'s compiled program (the view died)."""
        self._programs.pop(view_name, None)

    def _program(self, view: ViewDefinition) -> _ViewProgram:
        """``view``'s compiled program.

        Reused while the view is maintained under the same definition
        object and no catalog write touched one of its relation names
        since the program was last confirmed; when one did, the view's
        placement is recomputed and the program kept if that placement
        is unchanged.  Otherwise the view takes the program
        of its (fingerprint, placement) shape, compiling it if no other
        view of that shape holds one.
        """
        # Read before the placement, so a catalog write racing this
        # call moves the epoch past the one recorded below.
        epoch = Catalog.epoch
        held = self._programs.get(view.name)
        if held is not None and held.definition is view:
            if _unmoved(held, epoch):
                return held.program
            placement = self._space.placement(view.relation_names)
            if placement == held.program.placement:
                held.epoch = epoch
                return held.program
        else:
            placement = self._space.placement(view.relation_names)
        key = (coalesce_fingerprint(view), placement)
        program = self._shared.get(key)
        if program is None:
            program = self._shared[key] = _ViewProgram(view, placement)
        self._programs[view.name] = _Held(view, epoch, program)
        return program

    def _run(
        self,
        view_name: str,
        program: _ViewProgram,
        relation: str,
        extent: Relation,
        updates: list[DataUpdate],
        overlays: SizeOverlays = None,
    ) -> None:
        """Propagate + apply one same-relation update run."""
        path = program.path(relation)
        if self._representation == "dict":
            keys = program.keys
            for position, update in enumerate(updates):
                sizes = overlays[position] if overlays is not None else None
                deltas = self._propagate(program, path, update, sizes)
                rows = [tuple(binding[key] for key in keys) for binding in deltas]
                self._apply_rows(view_name, extent, rows, update.kind)
        else:
            batch = self._propagate_tuples(program, path, updates, overlays)
            self._apply_batch(view_name, path, extent, batch, updates)

    # ------------------------------------------------------------------
    # Delta propagation (the Sec. 6.1 sweep) — binding plane
    # ------------------------------------------------------------------
    def _propagate(
        self,
        program: _ViewProgram,
        path: _UpdatePath,
        update: DataUpdate,
        sizes: Mapping[str, int] | None = None,
    ) -> list[Binding]:
        condition = program.condition
        seed: Binding = {
            f"{update.relation}.{attr}": value
            for attr, value in zip(path.schema.attribute_names, update.row)
        }
        # Local selections on the updated relation itself prune the seed.
        if not _binding_satisfies(condition, seed):
            deltas: list[Binding] = []
        else:
            deltas = [seed]
        delta_width = path.schema.tuple_byte_size()

        # The update notification itself (first term of Eq. 21).
        self.counters.record_message(delta_width)

        for local, source_name, width in path.steps:
            source = self._space.source(source_name)
            # Ship the delta (plus the query) down to the source.
            self.counters.record_message(len(deltas) * delta_width)
            self.counters.record_io(self._io_cost(len(deltas), local, sizes))
            deltas = source.answer_single_site_query(
                deltas, local, condition, use_index=self._use_index
            )
            delta_width += width
            # Ship the joined delta back to the warehouse.
            self.counters.record_message(len(deltas) * delta_width)
        return deltas

    # ------------------------------------------------------------------
    # Delta propagation — compiled planes (tuple and columnar batches)
    # ------------------------------------------------------------------
    def _propagate_tuples(
        self,
        program: _ViewProgram,
        path: _UpdatePath,
        updates: list[DataUpdate],
        overlays: SizeOverlays = None,
    ) -> "DeltaBatch | ColumnBatch":
        """One same-relation run through the compiled pipeline.

        Serves both compiled representations — the delta travels as a
        :class:`DeltaBatch` (tuple) or :class:`ColumnBatch` (columnar);
        every accounting statement is shared so the modeled counters
        cannot drift between them.  Message and I/O charges are the
        per-update quantities of the batch's provenance counts, charged
        once per step for the whole run: the counters are integer sums,
        so the totals equal the per-update reference's exactly.
        """
        condition = program.condition
        relation = updates[0].relation
        updated_schema = path.schema
        splan = path.seed
        rows: list[tuple] = []
        tags: list[int] = []
        for position, update in enumerate(updates):
            # Local selections on the updated relation prune the seed.
            if splan.predicate(update.row):
                rows.append(update.row)
                tags.append(position)
        columnar = self._representation == "columnar"
        if columnar:
            batch = ColumnBatch.seed(relation, updated_schema, rows, tags)
        else:
            batch = DeltaBatch(splan.columns, rows, tags)
        delta_width = updated_schema.tuple_byte_size()
        counts = batch.counts_by_tag(len(updates))
        counters = self.counters

        # The update notifications themselves (first term of Eq. 21).
        counters.record_messages(len(updates), len(updates) * delta_width)

        for local, source_name, width in path.steps:
            source = self._space.source(source_name)
            # Ship each update's delta (plus the query) down to the IS.
            counters.record_messages(len(counts), sum(counts) * delta_width)
            # The propagation mutates no source, so one catalog read per
            # local relation serves every update of the run, and the
            # updates without an overlay share one price per delta count.
            live = {
                name: self._space.relation(name).cardinality for name in local
            }
            plain = Counter(
                counts
                if overlays is None
                else [c for c, sizes in zip(counts, overlays) if sizes is None]
            )
            io = sum(
                self._io_cost(count, local, None, live) * repeats
                for count, repeats in plain.items()
            )
            if overlays is not None:
                io += sum(
                    self._io_cost(count, local, sizes, live)
                    for count, sizes in zip(counts, overlays)
                    if sizes is not None
                )
            counters.record_io(io)
            if columnar:
                batch = source.answer_single_site_columnar(
                    batch,
                    local,
                    condition,
                    use_index=self._use_index,
                    counters=self.kernel_counters,
                )
            else:
                batch = source.answer_single_site_batch(
                    batch, local, condition, use_index=self._use_index
                )
            delta_width += width
            counts = batch.counts_by_tag(len(updates))
            # Ship each update's joined delta back to the warehouse.
            counters.record_messages(len(counts), sum(counts) * delta_width)
        return batch

    def _io_cost(
        self,
        cardinality: int,
        local: Sequence[str],
        sizes: Mapping[str, int] | None = None,
        live: Mapping[str, int] | None = None,
    ) -> int:
        """Appendix A I/O price of one update's delta at one source.

        Per local relation: the optimizer either scans it once
        (ceil(|R|/bfr)) or probes per delta tuple at
        ceil(js*|R|/bfr) blocks each — whichever is cheaper.
        ``cardinality`` is one update's delta count entering the source.
        ``sizes`` overlays per-relation cardinalities (deferred flushes
        price against the sequential protocol's catalog state).
        ``live`` holds the catalog's current cardinalities when the
        caller already read them; otherwise they are looked up here.
        """
        bfr = self._statistics.blocking_factor
        js = self._statistics.join_selectivity
        total = 0
        for name in local:
            if sizes is not None and name in sizes:
                relation_size = sizes[name]
            elif live is not None:
                relation_size = live[name]
            else:
                relation_size = self._space.relation(name).cardinality
            scan = math.ceil(relation_size / bfr) if relation_size else 0
            probe = cardinality * math.ceil(js * relation_size / bfr)
            total += min(scan, probe) if relation_size else 0
            cardinality = max(
                1, math.ceil(cardinality * js * relation_size)
            )
        return total

    # ------------------------------------------------------------------
    # Applying the delta to the materialized extent
    # ------------------------------------------------------------------
    def _apply_batch(
        self,
        view_name: str,
        path: _UpdatePath,
        extent: Relation,
        batch: "DeltaBatch | ColumnBatch",
        updates: list[DataUpdate],
    ) -> None:
        """Project once, then apply the whole flush to the extent as one
        run (:meth:`~repro.relational.relation.Relation.apply_run`),
        each row inserted or deleted as its update was."""
        if isinstance(batch, ColumnBatch):
            projected = list(zip(*path.project(batch.cols)))
        else:
            projected = list(map(path.project, batch.rows))
        tags = batch.tags
        if tags is None:
            if projected:
                raise MaintenanceError(
                    "delta batch carries no provenance tags; cannot map "
                    "rows back to their originating updates"
                )
            return
        ops = [
            (updates[tag].kind is UpdateKind.INSERT, row)
            for tag, row in zip(tags, projected)
        ]
        applied = extent.apply_run(ops)
        if len(applied) < len(ops):
            # The row the run stopped at fails one by one as well, with
            # the per-update path's error.
            insert, row = ops[len(applied)]
            self._apply_rows(
                view_name,
                extent,
                [row],
                UpdateKind.INSERT if insert else UpdateKind.DELETE,
            )

    def _apply_rows(
        self,
        view_name: str,
        extent: Relation,
        rows: list[tuple],
        kind: UpdateKind,
    ) -> None:
        if kind is UpdateKind.INSERT:
            for row in rows:
                extent.insert(row)
        else:
            for row in rows:
                if not extent.delete(row):
                    raise MaintenanceError(
                        f"view {view_name!r} is inconsistent: "
                        f"delta row {row!r} not present during delete "
                        f"propagation"
                    )


def _binding_satisfies(condition, binding: Binding) -> bool:
    """Evaluate the decidable clauses against the seed binding."""
    for clause in condition.clauses:
        if clause_decidable(clause, binding) and not clause.evaluate(binding):
            return False
    return True
