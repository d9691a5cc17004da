"""Unit tests for the View Knowledge Base."""

import pytest

from repro.errors import WorkspaceError
from repro.esql.parser import parse_view
from repro.sync.rewriting import ExtentRelationship, Rewriting
from repro.sync.vkb import ViewKnowledgeBase


@pytest.fixture
def vkb():
    base = ViewKnowledgeBase()
    base.define(parse_view("CREATE VIEW V1 AS SELECT R.A FROM R"))
    base.define(parse_view("CREATE VIEW V2 AS SELECT S.B FROM S"))
    return base


class TestRegistration:
    def test_define_and_lookup(self, vkb):
        assert "V1" in vkb
        assert len(vkb) == 2
        assert vkb.current("V1").relation_names == ("R",)

    def test_duplicate_define_rejected(self, vkb):
        with pytest.raises(WorkspaceError):
            vkb.define(parse_view("CREATE VIEW V1 AS SELECT R.A FROM R"))

    def test_drop(self, vkb):
        vkb.drop("V1")
        assert "V1" not in vkb
        with pytest.raises(WorkspaceError):
            vkb.drop("V1")

    def test_unknown_record(self, vkb):
        with pytest.raises(WorkspaceError):
            vkb.record("Zzz")


class TestQueries:
    def test_views_referencing(self, vkb):
        assert [r.name for r in vkb.views_referencing("R")] == ["V1"]
        assert vkb.views_referencing("Z") == ()

    def test_alive_views(self, vkb):
        assert len(vkb.alive_views()) == 2
        vkb.mark_undefined("V1")
        assert [r.name for r in vkb.alive_views()] == ["V2"]

    def test_dead_views_not_reported_as_referencing(self, vkb):
        vkb.mark_undefined("V1")
        assert vkb.views_referencing("R") == ()


class TestSynchronizationBookkeeping:
    def test_apply_rewriting_advances_current(self, vkb):
        original = vkb.current("V1")
        new_view = original.replacing_relation("R", "T")
        rewriting = Rewriting(original, new_view, (), ExtentRelationship.EQUAL)
        record = vkb.apply_rewriting(rewriting)
        assert record.current.relation_names == ("T",)
        assert record.original.relation_names == ("R",)
        assert record.generations == 1

    def test_apply_to_dead_view_rejected(self, vkb):
        vkb.mark_undefined("V1")
        original = vkb.record("V1").original
        rewriting = Rewriting(original, original)
        with pytest.raises(WorkspaceError):
            vkb.apply_rewriting(rewriting)

    def test_history_accumulates(self, vkb):
        record = vkb.record("V1")
        for target in ("T", "U"):
            rewriting = Rewriting(
                record.current,
                record.current.replacing_relation(
                    record.current.relation_names[0], target
                ),
            )
            vkb.apply_rewriting(rewriting)
        assert record.generations == 2


class TestInvertedIndex:
    def _rewrite(self, vkb, name, text):
        rewriting = Rewriting(
            vkb.current(name),
            parse_view(text),
            (),
            ExtentRelationship.EQUAL,
        )
        return vkb.apply_rewriting(rewriting)

    def test_index_follows_rewritings(self, vkb):
        # V1 moves from R to T: the index forgets R, learns T.
        self._rewrite(vkb, "V1", "CREATE VIEW V1 AS SELECT T.A FROM T")
        assert vkb.views_referencing("R") == ()
        assert [r.name for r in vkb.views_referencing("T")] == ["V1"]

    def test_index_forgets_dropped_views(self, vkb):
        vkb.drop("V2")
        assert vkb.views_referencing("S") == ()

    def test_index_forgets_dead_views(self, vkb):
        vkb.mark_undefined("V2")
        assert vkb.views_referencing("S") == ()
        # V1 is untouched.
        assert [r.name for r in vkb.views_referencing("R")] == ["V1"]

    def test_index_order_is_definition_order(self, vkb):
        vkb.define(parse_view("CREATE VIEW V0 AS SELECT R.B FROM R"))
        assert [r.name for r in vkb.views_referencing("R")] == ["V1", "V0"]

    def test_shared_relation_counts_every_view(self, vkb):
        vkb.define(parse_view("CREATE VIEW V3 AS SELECT R.A, S.B FROM R, S"))
        assert [r.name for r in vkb.views_referencing("S")] == ["V2", "V3"]
        vkb.mark_undefined("V2")
        assert [r.name for r in vkb.views_referencing("S")] == ["V3"]

    def test_memoized_results_follow_every_mutation(self, vkb):
        """After each define/drop/rewrite/mark-undefined, every
        relation's result equals a scan of the registry in definition
        order, also when the result was memoized before the step."""
        relations = ("R", "S", "T", "U", "Z")

        def check():
            for relation in relations:
                scan = tuple(
                    record
                    for record in sorted(vkb, key=lambda r: vkb.order_of(r.name))
                    if record.alive and relation in record.current.relation_names
                )
                assert vkb.views_referencing(relation) == scan
                assert vkb.views_referencing(relation) == scan

        steps = [
            lambda: vkb.define(parse_view("CREATE VIEW V3 AS SELECT R.A, S.B FROM R, S")),
            lambda: vkb.define(parse_view("CREATE VIEW V0 AS SELECT R.B FROM R")),
            lambda: self._rewrite(vkb, "V1", "CREATE VIEW V1 AS SELECT T.A FROM T"),
            lambda: vkb.mark_undefined("V3"),
            lambda: vkb.drop("V2"),
            lambda: vkb.define(parse_view("CREATE VIEW V2 AS SELECT U.B FROM U")),
            lambda: self._rewrite(vkb, "V0", "CREATE VIEW V0 AS SELECT S.A FROM S, U"),
            lambda: vkb.drop("V3"),
        ]
        check()
        for step in steps:
            step()
            check()
        assert [r.name for r in vkb.views_referencing("S")] == ["V0"]
