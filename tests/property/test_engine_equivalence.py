"""Engine equivalence: indexed/compiled paths == naive nested-loop paths.

The indexed execution engine (hash probes, compiled predicates, greedy
join order) must be a pure performance change: on every randomized
relation instance, join condition, and insert/delete sequence it has to
produce row-identical (bag-equal) results to the interpreted nested-loop
reference — and incrementally maintained indexes must always agree with a
freshly built scan.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig, MaintenanceConfig
from repro.esql.evaluator import evaluate_view
from repro.esql.parser import parse_condition_clause, parse_view
from repro.relational.algebra import join, select
from repro.relational.expressions import Condition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.source import InformationSource
from repro.maintenance.simulator import ViewMaintainer
from repro.misd.statistics import RelationStatistics
from repro.space.space import InformationSpace

values = st.integers(0, 5)
r_rows = st.lists(st.tuples(values, values), max_size=25)
s_rows = st.lists(st.tuples(values, values), max_size=25)
t_rows = st.lists(st.tuples(values, values), max_size=15)

#: WHERE-clause pool: equijoins, selections, a non-equijoin, and a
#: same-relation clause — every shape the clause scheduler handles.
CLAUSE_POOL = (
    "R.A = S.A",
    "R.B = T.B",
    "S.C = T.D",
    "R.A > 2",
    "S.C <> 3",
    "T.D <= 4",
    "R.A < S.C",
    "R.A = R.B",
)

clause_subsets = st.sets(
    st.sampled_from(CLAUSE_POOL), max_size=4
).map(sorted)
from_orders = st.permutations(["R", "S", "T"])


def make_relations(r_data, s_data, t_data):
    return {
        "R": Relation(Schema("R", ["A", "B"]), r_data),
        "S": Relation(Schema("S", ["A", "C"]), s_data),
        "T": Relation(Schema("T", ["B", "D"]), t_data),
    }


@given(r_rows, s_rows, t_rows, clause_subsets, from_orders)
@settings(max_examples=80, deadline=None)
def test_indexed_evaluator_matches_naive(r_data, s_data, t_data, clauses, order):
    relations = make_relations(r_data, s_data, t_data)
    where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
    view = parse_view(
        "CREATE VIEW V AS SELECT R.A, R.B, S.C, T.D "
        f"FROM {', '.join(order)}{where}"
    )
    indexed = evaluate_view(view, relations, config=EngineConfig(engine="indexed"))
    naive = evaluate_view(view, relations, config=EngineConfig(engine="naive"))
    assert indexed == naive  # bag equality over identical schemas


@given(r_rows, s_rows, t_rows, clause_subsets, from_orders)
@settings(max_examples=80, deadline=None)
def test_optimized_evaluator_matches_naive(
    r_data, s_data, t_data, clauses, order
):
    """The compiled plane matches naive when only R feeds the SELECT list.

    Whichever of S/T the greedy order places last is then a relation
    whose columns are probed or filtered but never projected, and local
    clauses on probed relations run as residuals.  The tuple plane must
    stay bag-identical to the naive reference on these shapes.
    """
    relations = make_relations(r_data, s_data, t_data)
    where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
    view = parse_view(
        "CREATE VIEW V AS SELECT R.A, R.B "
        f"FROM {', '.join(order)}{where}"
    )
    naive = evaluate_view(view, relations, config=EngineConfig(engine="naive"))
    indexed = evaluate_view(view, relations, config=EngineConfig())
    assert indexed == naive  # bag equality over identical schemas


@given(r_rows, s_rows, clause_subsets)
@settings(max_examples=60, deadline=None)
def test_two_relation_views_agree(r_data, s_data, clauses):
    relations = make_relations(r_data, s_data, [])
    usable = [c for c in clauses if "T." not in c]
    where = (" WHERE " + " AND ".join(usable)) if usable else ""
    view = parse_view(
        f"CREATE VIEW V AS SELECT R.B, S.C FROM S, R{where}"
    )
    indexed = evaluate_view(view, relations, config=EngineConfig(engine="indexed"))
    naive = evaluate_view(view, relations, config=EngineConfig(engine="naive"))
    assert indexed == naive


@given(
    r_rows,
    s_rows,
    st.sets(
        st.sampled_from(["R.A = S.A", "R.B = S.C", "R.A < S.C", "R.B > 1"]),
        min_size=1,
        max_size=3,
    ).map(sorted),
)
@settings(max_examples=60, deadline=None)
def test_algebra_join_indexed_matches_nested_loop(r_data, s_data, clauses):
    left = Relation(Schema("R", ["A", "B"]), r_data)
    right = Relation(Schema("S", ["A", "C"]), s_data)
    condition = Condition(parse_condition_clause(c) for c in clauses)
    fast = join(left, right, condition, use_index=True)
    slow = join(left, right, condition, use_index=False)
    assert fast == slow


@given(r_rows, st.sampled_from(["A > 2", "R.A = R.B", "B <> 4"]))
@settings(max_examples=40, deadline=None)
def test_algebra_select_compiled_matches_interpreted(r_data, clause_text):
    relation = Relation(Schema("R", ["A", "B"]), r_data)
    condition = Condition.of(parse_condition_clause(clause_text))
    assert select(relation, condition, compiled=True) == select(
        relation, condition, compiled=False
    )


# ----------------------------------------------------------------------
# Index maintenance under insert/delete sequences
# ----------------------------------------------------------------------
@given(
    r_rows,
    st.lists(
        st.tuples(st.booleans(), st.tuples(values, values)), max_size=30
    ),
    st.integers(0, 30),
)
@settings(max_examples=80, deadline=None)
def test_incremental_index_matches_rebuilt_scan(initial, ops, build_at):
    relation = Relation(Schema("R", ["A", "B"]), initial)
    for step, (is_insert, row) in enumerate(ops):
        if step == build_at:
            relation.index_on(["A"])  # lazy build mid-sequence
        if is_insert:
            relation.insert(row)
        else:
            relation.delete(row)  # may be a no-op miss; must not corrupt
    index = relation.index_on(["A"])
    for key in {r[0] for r in relation} | {0, 5}:
        probed = Counter(index.probe((key,)))
        scanned = Counter(r for r in relation if r[0] == key)
        assert probed == scanned
    assert len(index) == relation.cardinality


@given(r_rows, st.lists(st.tuples(values, values), max_size=20))
@settings(max_examples=60, deadline=None)
def test_composite_index_survives_mutation(initial, inserts):
    relation = Relation(Schema("R", ["A", "B"]), initial)
    index = relation.index_on(["A", "B"])
    for row in inserts:
        relation.insert(row)
    for row in list(relation)[::2]:
        relation.delete(row)
    for row in set(relation.rows):
        assert Counter(index.probe(row)) == Counter(
            r for r in relation if r == row
        )


# ----------------------------------------------------------------------
# Single-site queries and full maintenance propagation
# ----------------------------------------------------------------------
binding_lists = st.lists(
    st.fixed_dictionaries({"X.A": values, "X.B": values}), max_size=10
)


@given(
    binding_lists,
    r_rows,
    s_rows,
    st.sets(
        st.sampled_from(
            [
                "X.A = R.A",
                "R.A = S.A",
                "X.B = S.C",
                "R.B > 2",
                "S.C <> 1",
                "X.A < R.B",
                "R.A = Elsewhere.A",
            ]
        ),
        max_size=4,
    ).map(sorted),
)
@settings(max_examples=80, deadline=None)
def test_single_site_query_indexed_matches_naive(
    bindings, r_data, s_data, clauses
):
    source = InformationSource("IS1")
    source.host(Relation(Schema("R", ["A", "B"]), r_data))
    source.host(Relation(Schema("S", ["A", "C"]), s_data))
    condition = Condition(parse_condition_clause(c) for c in clauses)
    fast = source.answer_single_site_query(
        [dict(b) for b in bindings], ["R", "S"], condition, use_index=True
    )
    slow = source.answer_single_site_query(
        [dict(b) for b in bindings], ["R", "S"], condition, use_index=False
    )
    as_multiset = lambda result: Counter(  # noqa: E731
        frozenset(binding.items()) for binding in result
    )
    assert as_multiset(fast) == as_multiset(slow)


def _build_space(r_data, s_data):
    space = InformationSpace()
    space.add_source("IS1")
    space.add_source("IS2")
    space.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B"]), r_data),
        RelationStatistics(cardinality=max(len(r_data), 1), tuple_size=8),
    )
    space.register_relation(
        "IS2",
        Relation(Schema("S", ["A", "C"]), s_data),
        RelationStatistics(cardinality=max(len(s_data), 1), tuple_size=8),
    )
    return space


@given(
    r_rows,
    s_rows,
    st.lists(
        st.tuples(
            st.sampled_from(["R", "S"]), st.tuples(values, values)
        ),
        max_size=12,
    ),
)
@settings(max_examples=50, deadline=None)
def test_maintenance_propagation_indexed_matches_naive(
    r_data, s_data, inserts
):
    view = parse_view(
        "CREATE VIEW V AS SELECT R.A, R.B, S.C FROM R, S WHERE R.A = S.A"
    )
    results = []
    for use_index in (True, False):
        space = _build_space(list(r_data), list(s_data))
        extent = evaluate_view(view, space.relations())
        maintainer = ViewMaintainer(
            space, config=MaintenanceConfig(use_index=use_index)
        )
        for relation_name, row in inserts:
            update = space.source(
                "IS1" if relation_name == "R" else "IS2"
            ).insert(relation_name, row)
            maintainer.maintain(view, extent, update)
        # Delete half of the original rows back out through the maintainer.
        for row in list(r_data)[::2]:
            update = space.source("IS1").delete("R", row)
            maintainer.maintain(view, extent, update)
        results.append((extent, maintainer.counters))
    (fast_extent, fast_counters), (slow_extent, slow_counters) = results
    assert fast_extent == slow_extent
    # The modeled cost counters must be byte-identical: the index changes
    # execution speed, never the modeled costs.
    assert fast_counters.messages == slow_counters.messages
    assert fast_counters.bytes_transferred == slow_counters.bytes_transferred
    assert fast_counters.io_operations == slow_counters.io_operations
