"""Unit tests for the memoized rewriting-assessment cache."""

import pytest

from repro.core.eve import EVESystem
from repro.esql.parser import parse_view
from repro.qc.assessment_cache import (
    AssessmentCache,
    fingerprint_rewriting,
    fingerprint_view,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sync.rewriting import ExtentRelationship, Rewriting


def rewriting_of(text, original_text=None):
    view = parse_view(text)
    original = parse_view(original_text) if original_text else view
    return Rewriting(original, view, (), ExtentRelationship.EQUAL)


class TestFingerprints:
    def test_clause_order_is_canonicalized(self):
        a = parse_view(
            "CREATE VIEW V AS SELECT R.A FROM R, S "
            "WHERE R.A = S.A AND R.B > 2"
        )
        b = parse_view(
            "CREATE VIEW V AS SELECT R.A FROM R, S "
            "WHERE R.B > 2 AND R.A = S.A"
        )
        assert fingerprint_view(a) == fingerprint_view(b)

    def test_operand_order_is_canonicalized(self):
        a = parse_view(
            "CREATE VIEW V AS SELECT R.A FROM R, S WHERE R.A = S.A"
        )
        b = parse_view(
            "CREATE VIEW V AS SELECT R.A FROM R, S WHERE S.A = R.A"
        )
        assert fingerprint_view(a) == fingerprint_view(b)

    def test_from_order_is_preserved(self):
        # FROM order feeds the maintenance plan, so it must distinguish.
        a = parse_view("CREATE VIEW V AS SELECT R.A FROM R, S")
        b = parse_view("CREATE VIEW V AS SELECT R.A FROM S, R")
        assert fingerprint_view(a) != fingerprint_view(b)

    def test_flags_distinguish(self):
        a = parse_view("CREATE VIEW V AS SELECT R.A (AD = true) FROM R")
        b = parse_view("CREATE VIEW V AS SELECT R.A (AD = false) FROM R")
        assert fingerprint_view(a) != fingerprint_view(b)

    def test_rewriting_fingerprint_covers_relationship(self):
        base = "CREATE VIEW V AS SELECT R.A FROM R"
        equal = Rewriting(
            parse_view(base), parse_view(base), (), ExtentRelationship.EQUAL
        )
        superset = Rewriting(
            parse_view(base), parse_view(base), (), ExtentRelationship.SUPERSET
        )
        assert fingerprint_rewriting(equal) != fingerprint_rewriting(superset)


class TestMemoization:
    def test_memo_computes_once(self):
        cache = AssessmentCache()
        calls = []
        for _ in range(3):
            value = cache.memo("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_invalidate_forgets(self):
        cache = AssessmentCache()
        cache.memo("k", lambda: 1)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.memo("k", lambda: 2) == 2

    def test_eviction_bounds_size(self):
        cache = AssessmentCache(max_entries=16)
        for i in range(100):
            cache.memo(i, lambda i=i: i)
        assert len(cache) <= 16

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            AssessmentCache(max_entries=0)

    def test_quality_entry_keyed_on_statistics(self):
        cache = AssessmentCache()
        rw = rewriting_of("CREATE VIEW V AS SELECT R.A FROM R")
        first = cache.quality(rw, ("stats", 1), lambda: "old")
        moved = cache.quality(rw, ("stats", 2), lambda: "new")
        assert (first, moved) == ("old", "new")


class TestSystemWiring:
    def _system(self):
        eve = EVESystem()
        eve.add_source("IS1")
        eve.add_source("IS2")
        eve.register_relation(
            "IS1", Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20)])
        )
        eve.register_relation(
            "IS2", Relation(Schema("T", ["A", "B"]), [(1, 10), (3, 30)])
        )
        eve.mkb.add_equivalence("R", "T", ["A", "B"])
        return eve

    def _salvaged(self):
        eve = self._system()
        eve.define_view(
            "CREATE VIEW V AS SELECT R.A (AR = true), R.B (AR = true) "
            "FROM R (RR = true)"
        )
        eve.space.delete_relation("R")
        assert eve.is_alive("V")
        return eve

    def test_search_and_ranking_leave_cache_empty(self):
        # Each search assesses candidates no earlier search produced,
        # so neither the search nor rank_rewritings consults the memo.
        eve = self._salvaged()
        assert len(eve.assessment_cache) == 0
        evaluations = eve.synchronization_log[0].evaluations
        eve.rank_rewritings([e.rewriting for e in evaluations])
        assert len(eve.assessment_cache) == 0
        assert eve.assessment_cache.hits == eve.assessment_cache.misses == 0

    def test_ranking_repeats_the_search_evaluations(self):
        eve = self._salvaged()
        searched = eve.synchronization_log[0].evaluations
        rewritings = [e.rewriting for e in searched]
        for _ in range(2):
            ranked = eve.rank_rewritings(rewritings)
            assert [e.name for e in ranked] == [e.name for e in searched]
            assert [e.qc for e in ranked] == [e.qc for e in searched]

    def test_capability_change_invalidates_even_without_autosync(self):
        eve = self._system()
        eve.auto_synchronize = False
        eve.assessment_cache.memo("sentinel", lambda: 1)
        version = eve.assessment_cache.version
        eve.space.delete_relation("T")
        assert eve.assessment_cache.version > version
        assert len(eve.assessment_cache) == 0

    def test_register_relation_invalidates(self):
        eve = self._system()
        eve.assessment_cache.memo("sentinel", lambda: 1)
        eve.register_relation(
            "IS1", Relation(Schema("U", ["A"]), [(1,)])
        )
        assert len(eve.assessment_cache) == 0

    def test_standalone_model_sees_mkb_mutations(self):
        # A QCModel with its own cache (no EVESystem invalidation hook)
        # must not serve pre-change scores after the MKB gains knowledge.
        from repro.qc.model import QCModel
        from repro.space.space import InformationSpace
        from repro.sync.synchronizer import ViewSynchronizer

        space = InformationSpace()
        space.add_source("IS1")
        space.add_source("IS2")
        space.register_relation(
            "IS1", Relation(Schema("R", ["A", "B"]), [(1, 10)])
        )
        space.register_relation(
            "IS2", Relation(Schema("T", ["A", "B"]), [(1, 10)])
        )
        space.mkb.add_containment("R", "T", ["A", "B"])
        view = parse_view(
            "CREATE VIEW V AS SELECT R.A (AR = true), R.B (AR = true) "
            "FROM R (RR = true)"
        )
        change = space.delete_relation("R")
        rewritings = ViewSynchronizer(space.mkb).synchronize(view, change)
        cache = AssessmentCache()
        model = QCModel(space.mkb, cache=cache)
        model.evaluate(rewritings)
        misses_after_first = cache.misses
        model.evaluate(rewritings)
        assert cache.misses == misses_after_first  # warm: pure hits
        # Any MKB mutation moves its version, so old entries go stale.
        space.register_relation(
            "IS2", Relation(Schema("U", ["A"]), [(1,)])
        )
        model.evaluate(rewritings)
        assert cache.misses > misses_after_first  # recomputed, not served
