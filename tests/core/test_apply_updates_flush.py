"""The join-graph flush analysis of EVESystem.apply_updates.

The boundary rule: a pending batch flushes before an update lands on a
*different* relation the view references only when the incoming row can
actually reach a pending delta through the view's join graph.  Rows
excluded by every edge (failed equijoin key, failed local selection)
keep the batch growing — with extents and modeled counters still
byte-identical to the sequential per-update protocol (the enqueue-time
cardinality snapshots price the deferred flush exactly).
"""

import pytest

from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.errors import MaintenanceError
from repro.esql.evaluator import evaluate_view
from repro.events import ViewMaintained
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace


def build_space(r_rows=((1, 10), (2, 20)), s_rows=((1, 5), (2, 6))):
    space = InformationSpace()
    space.add_source("IS1")
    space.add_source("IS2")
    space.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B"]), list(r_rows)),
        RelationStatistics(cardinality=max(len(r_rows), 1)),
    )
    space.register_relation(
        "IS2",
        Relation(Schema("S", ["A", "C"]), list(s_rows)),
        RelationStatistics(cardinality=max(len(s_rows), 1)),
    )
    return space


def build_eve(view_text, r_rows=((1, 10), (2, 20)), s_rows=((1, 5), (2, 6))):
    space = build_space(r_rows, s_rows)
    eve = EVESystem(space=space, auto_synchronize=False)
    eve.define_view(view_text)
    return eve


def run_with_flush_count(view_text, stream, **kwargs):
    eve = build_eve(view_text, **kwargs)
    flushes = []
    eve.subscribe(ViewMaintained, flushes.append)
    counters = eve.apply_updates(stream)
    return eve, flushes, counters


def sequential_reference(view_text, stream, **kwargs):
    """The per-update listener path: apply each update, maintain at once."""
    eve = build_eve(view_text, **kwargs)
    for relation, kind, row in stream:
        if kind == "insert":
            eve.space.insert(relation, row)
        else:
            eve.space.delete(relation, row)
    return eve


EQUIJOIN = "CREATE VIEW V AS SELECT R.A, S.C FROM R, S WHERE R.A = S.A"
THETA = "CREATE VIEW V AS SELECT R.A, S.C FROM R, S WHERE R.B < S.C"
FILTERED = (
    "CREATE VIEW V AS SELECT R.A, S.C FROM R, S "
    "WHERE R.A = S.A AND S.C > 4"
)


def assert_matches_sequential(view_text, stream, **kwargs):
    eve, flushes, counters = run_with_flush_count(
        view_text, stream, **kwargs
    )
    reference = sequential_reference(view_text, stream, **kwargs)
    assert sorted(eve.extent("V").rows) == sorted(
        reference.extent("V").rows
    )
    charged = (
        counters.messages,
        counters.bytes_transferred,
        counters.io_operations,
    )
    ref = reference.maintainer.counters
    assert charged == (
        ref.messages, ref.bytes_transferred, ref.io_operations
    )
    return eve, flushes


class TestJoinGraphBatching:
    def test_unjoinable_key_does_not_flush(self):
        # The S row's join key (99) matches no pending R delta (7, 8),
        # so the whole stream is one flush despite the boundary.
        stream = [
            ("R", "insert", (7, 70)),
            ("R", "insert", (8, 80)),
            ("S", "insert", (99, 9)),
            ("R", "insert", (7, 71)),
        ]
        _, flushes = assert_matches_sequential(EQUIJOIN, stream)
        assert len(flushes) == 1
        assert flushes[0].updates == 4
        assert flushes[0].relations == ("R", "S")

    def test_joinable_key_flushes(self):
        # S row with key 7 joins the pending R delta: flush first.
        stream = [
            ("R", "insert", (7, 70)),
            ("S", "insert", (7, 9)),
            ("R", "insert", (8, 80)),
        ]
        _, flushes = assert_matches_sequential(EQUIJOIN, stream)
        assert [flush.updates for flush in flushes] == [1, 2]

    def test_failed_local_selection_does_not_flush(self):
        # S.C = 1 fails the view's S.C > 4 selection: the row can never
        # appear in any propagation, even though its key matches.
        stream = [
            ("R", "insert", (7, 70)),
            ("S", "insert", (7, 1)),
            ("R", "insert", (7, 72)),
        ]
        _, flushes = assert_matches_sequential(FILTERED, stream)
        assert len(flushes) == 1

    def test_theta_edge_conservatively_flushes(self):
        # R.B < S.C is decidable for the (seed, row) pair and holds,
        # so the row is reachable: the batch must flush.
        stream = [
            ("R", "insert", (7, 1)),
            ("S", "insert", (9, 50)),  # 1 < 50: joins the pending delta
        ]
        _, flushes = assert_matches_sequential(THETA, stream)
        assert len(flushes) == 2

    def test_theta_edge_excluding_row_does_not_flush(self):
        # 90 < 3 fails for the only pending delta: batching is safe
        # even under a non-equijoin edge, when it is decidably false.
        stream = [
            ("R", "insert", (7, 90)),
            ("S", "insert", (9, 3)),
            ("R", "insert", (8, 91)),
        ]
        _, flushes = assert_matches_sequential(THETA, stream)
        assert len(flushes) == 1

    def test_deletes_use_the_same_analysis(self):
        stream = [
            ("R", "insert", (7, 70)),
            ("S", "delete", (2, 6)),  # key 2 reaches no pending delta
            ("R", "insert", (8, 80)),
            ("S", "delete", (1, 5)),  # but key 1... still no pending 1
        ]
        _, flushes = assert_matches_sequential(EQUIJOIN, stream)
        assert len(flushes) == 1

    def test_deferred_flush_prices_sequential_cardinalities(self):
        # The skipped S insert changes |S|; the pending R deltas must
        # still charge modeled I/O against |S| as it was when each
        # update was enqueued (what the sequential protocol charged).
        # assert_matches_sequential compares the counters byte for byte.
        stream = [
            ("R", "insert", (7, 70)),
            ("S", "insert", (99, 9)),
            ("S", "insert", (98, 9)),
            ("R", "insert", (8, 80)),
            ("S", "insert", (97, 9)),
        ]
        _, flushes = assert_matches_sequential(
            EQUIJOIN, stream, s_rows=tuple((k, 5) for k in range(1, 40))
        )
        assert len(flushes) == 1

    def test_interleaved_matching_storm_flushes_every_matching_edge(self):
        # Each S_k joins the R_k pending right before it, so those
        # boundaries flush — but each following R_{k+1} does NOT join
        # the pending S_k (keys differ), so the batch re-grows across
        # it.  The relation-identity rule flushed all 8 boundaries; the
        # join-graph rule flushes only the 4 reachable ones (plus the
        # end-of-stream flush), with identical extents and counters.
        stream = []
        for k in range(4):
            stream.append(("R", "insert", (k, k)))
            stream.append(("S", "insert", (k, 9)))
        _, flushes = assert_matches_sequential(EQUIJOIN, stream)
        assert len(flushes) == 5

    def test_analysis_limit_flushes_oversized_batches(self):
        limit = EVESystem._JOIN_ANALYSIS_LIMIT
        stream = [("R", "insert", (5, k)) for k in range(limit + 1)]
        stream.append(("S", "insert", (99, 9)))  # unjoinable, but > limit
        _, flushes = assert_matches_sequential(EQUIJOIN, stream)
        assert len(flushes) == 2


class TestRelationSizesContract:
    def test_mismatched_overlay_length_rejected(self):
        eve = build_eve(EQUIJOIN)
        update = eve.space.insert("R", (9, 90))
        view = eve.vkb.current("V")
        with pytest.raises(MaintenanceError, match="overlay"):
            eve.maintainer.maintain_batch(
                view, eve.extent("V"), [update], relation_sizes=[{}, {}]
            )

    def test_overlay_overrides_live_cardinality(self):
        # Price S as if it still had 1 row while it actually has 2:
        # the overlaid charge must equal a real 1-row-S propagation.
        small = build_eve(EQUIJOIN, s_rows=((1, 5),))
        update = small.space.insert("R", (9, 90))
        reference = small.maintainer.maintain(
            small.vkb.current("V"), small.extent("V"), update
        )

        grown = build_eve(EQUIJOIN, s_rows=((1, 5), (2, 6)))
        update = grown.space.insert("R", (9, 90))
        charged = grown.maintainer.maintain_batch(
            grown.vkb.current("V"),
            grown.extent("V"),
            [update],
            relation_sizes=[{"S": 1}],
        )
        assert (
            charged.messages,
            charged.bytes_transferred,
            charged.io_operations,
        ) == (
            reference.messages,
            reference.bytes_transferred,
            reference.io_operations,
        )


class TestRaisingListener:
    """A listener that raises stops the stream, but every update that
    landed is still queued and flushed: no extent goes stale."""

    VIEWS = (
        EQUIJOIN,
        "CREATE VIEW W AS SELECT R.A, R.B FROM R WHERE R.B > 1",
        "CREATE VIEW X AS SELECT S.A, S.C FROM S",
    )
    STREAM = [
        ("R", "insert", (3, 30)),
        ("R", "insert", (1, 11)),
        ("R", "delete", (2, 20)),
        ("S", "insert", (3, 7)),
        ("S", "delete", (2, 6)),
        ("R", "insert", (2, 21)),
        ("R", "insert", (4, 40)),
    ]

    @pytest.mark.parametrize("k", range(1, len(STREAM) + 1))
    @pytest.mark.parametrize("serving", [False, True], ids=["direct", "serving"])
    @pytest.mark.parametrize(
        "config",
        [SystemConfig(), SystemConfig.reference()],
        ids=["tuple", "reference"],
    )
    def test_extents_match_sources_after_listener_error(
        self, config, serving, k
    ):
        space = build_space()
        eve = EVESystem(space=space, auto_synchronize=False, config=config)
        for text in self.VIEWS:
            eve.define_view(text)
        if serving:
            eve.snapshot().release()
        seen = []

        def listener(update):
            seen.append(update)
            if len(seen) == k:
                raise RuntimeError(f"listener fails on update {k}")

        space.on_data_update(listener)
        with pytest.raises(RuntimeError, match=f"update {k}"):
            eve.apply_updates(self.STREAM)
        relations = space.relations()
        for name in ("V", "W", "X"):
            expected = evaluate_view(eve.vkb.current(name), relations)
            assert sorted(eve.extent(name).rows) == sorted(expected.rows)
