"""Policy parity: pruned and top_k commit the exhaustive winner.

Randomized spaces (varying donor cardinalities, constraint directions,
evolution flags, and change kinds) drive the streaming pipeline under
every search policy.  ``pruned`` and ``top_k`` must pick the identical
winning rewriting — with the identical QC-Value, float for float — as
``exhaustive``, which itself must match the eager reference path.  The
dominated spectrum must never be materialized unless requested.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.esql.ast import FromItem, SelectItem, ViewDefinition, WhereItem
from repro.esql.params import EvolutionFlags, ViewExtent
from repro.misd.constraints import (
    PCConstraint,
    PCRelationship,
    RelationFragment,
)
from repro.misd.statistics import RelationStatistics
from repro.qc.model import QCModel
from repro.relational.expressions import (
    AttributeRef,
    Comparator,
    Constant,
    PrimitiveClause,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import DeleteAttribute, DeleteRelation
from repro.space.space import InformationSpace
from repro.sync.legality import check_legality
from repro.sync.pipeline import RewritingSearchPipeline
from repro.sync.synchronizer import ViewSynchronizer

flags = st.builds(EvolutionFlags, st.booleans(), st.booleans())
extents = st.sampled_from(
    [ViewExtent.ANY, ViewExtent.SUPERSET, ViewExtent.SUBSET]
)
pc_relationships = st.sampled_from(list(PCRelationship))

ATTRS = ["A", "B", "C"]
DONORS = ("S", "T", "U")


@st.composite
def scenario(draw):
    """A space with three potential donors, a random view, and a change."""
    space = InformationSpace()
    space.add_source("IS1")
    space.register_relation(
        "IS1",
        Relation(Schema("R", ATTRS)),
        RelationStatistics(cardinality=draw(st.integers(100, 5000))),
    )
    for index, donor in enumerate(DONORS):
        source = f"IS{index + 2}"
        space.add_source(source)
        space.register_relation(
            source,
            Relation(Schema(donor, ATTRS)),
            RelationStatistics(cardinality=draw(st.integers(100, 5000))),
        )
        if draw(st.booleans()):
            subset = draw(
                st.lists(
                    st.sampled_from(ATTRS),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            space.mkb.add_pc_constraint(
                PCConstraint(
                    RelationFragment("R", tuple(subset)),
                    RelationFragment(donor, tuple(subset)),
                    draw(pc_relationships),
                )
            )

    n_select = draw(st.integers(1, 3))
    chosen = draw(
        st.lists(
            st.sampled_from(ATTRS),
            min_size=n_select,
            max_size=n_select,
            unique=True,
        )
    )
    select = [
        SelectItem(AttributeRef(attr, "R"), draw(flags)) for attr in chosen
    ]
    where = []
    if draw(st.booleans()):
        where.append(
            WhereItem(
                PrimitiveClause(
                    AttributeRef(draw(st.sampled_from(ATTRS)), "R"),
                    Comparator.GT,
                    Constant(draw(st.integers(0, 9))),
                ),
                draw(flags),
            )
        )
    view = ViewDefinition(
        "V", select, [FromItem("R", draw(flags))], where, draw(extents)
    )
    if draw(st.booleans()):
        change = DeleteRelation("IS1", "R")
        space.delete_relation("R")
    else:
        attribute = draw(st.sampled_from(ATTRS))
        change = DeleteAttribute("IS1", "R", attribute)
        space.delete_attribute("R", attribute)
    return space, view, change


def _pipeline(space):
    return RewritingSearchPipeline(
        ViewSynchronizer(space.mkb), QCModel(space.mkb)
    )


@given(scenario(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_pruned_and_top_k_match_exhaustive(data, include_dominated):
    space, view, change = data
    pipeline = _pipeline(space)
    exhaustive = pipeline.search(
        view, change, include_dominated=include_dominated, policy="exhaustive"
    )
    for policy in ("pruned", "top_k(1)", "top_k(3)"):
        result = pipeline.search(
            view, change, include_dominated=include_dominated, policy=policy
        )
        assert result.survived == exhaustive.survived
        if exhaustive.survived:
            assert (
                result.chosen.rewriting == exhaustive.chosen.rewriting
            ), policy
            assert result.chosen.qc == exhaustive.chosen.qc, policy
            assert (
                result.chosen.normalized_cost
                == exhaustive.chosen.normalized_cost
            ), policy


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_exhaustive_matches_eager_reference(data):
    space, view, change = data
    synchronizer = ViewSynchronizer(space.mkb)
    model = QCModel(space.mkb)
    pipeline = RewritingSearchPipeline(synchronizer, model)
    eager = [
        rewriting
        for rewriting in synchronizer.synchronize(view, change)
        if check_legality(rewriting).legal
    ]
    result = pipeline.search(view, change, policy="exhaustive")
    assert [e.rewriting for e in result.evaluations] == [
        e.rewriting for e in (model.evaluate(eager) if eager else [])
    ]
    if eager:
        reference = model.evaluate(eager)
        assert [e.qc for e in result.evaluations] == [
            e.qc for e in reference
        ]


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_dominated_spectrum_not_materialized_by_default(data):
    space, view, change = data
    pipeline = _pipeline(space)
    for policy in ("exhaustive", "pruned", "first_legal"):
        result = pipeline.search(view, change, policy=policy)
        assert result.counters.dominated == 0


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_counters_account_for_every_candidate(data):
    space, view, change = data
    pipeline = _pipeline(space)
    counters = pipeline.search(view, change, include_dominated=True).counters
    assert (
        counters.generated + counters.dominated
        == counters.ve_rejected
        + counters.duplicates
        + counters.illegal
        + counters.legal
    )
    assert counters.assessed + counters.pruned == counters.legal
