"""Ablation benches for the design choices called out in DESIGN.md §5.

Three ablations, each comparing the implemented choice against its
alternative on the Experiment 4 scenario:

* **Estimated vs exact quality** — the paper's statistics-only estimation
  path vs counting materialized extents.  Expected: identical ranking on
  the substitution chain (the containment constraints are exact, so the
  estimates are too).
* **Overlap fallback** — the paper's pessimistic "no PC constraint means
  zero overlap" vs an optimistic min-cardinality guess.  Expected: the
  pessimistic rule correctly zeroes unrelated substitutions; the
  optimistic one inflates their quality and can flip the ranking.
* **Bag vs set extent comparison** — the quality model de-duplicates
  before comparing (Sec. 5.4.2); comparing raw bags instead would
  double-count join multiplicities.  Measured on concrete extents.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.core.report import format_table
from repro.esql.evaluator import evaluate_view
from repro.qc.model import QCModel
from repro.qc.params import TradeoffParameters
from repro.qc.quality import exact_extent_numbers
from repro.qc.view_size import estimate_extent_numbers
from repro.space.changes import DeleteRelation
from repro.sync.synchronizer import ViewSynchronizer
from repro.workloadgen.scenarios import build_cardinality_scenario


def candidates(populate=False):
    scenario = build_cardinality_scenario(populate=populate)
    scenario.space.delete_relation("R2")
    synchronizer = ViewSynchronizer(scenario.space.mkb)
    rewritings = synchronizer.synchronize(
        scenario.view, DeleteRelation("IS1", "R2")
    )
    rewritings.sort(key=lambda r: r.moves[-1].new_relation)
    named = [r.renamed(f"V{i + 1}") for i, r in enumerate(rewritings)]
    return scenario, named


# ----------------------------------------------------------------------
# Ablation 1: estimated vs exact quality path
# ----------------------------------------------------------------------
def run_estimated_vs_exact():
    scenario, named = candidates(populate=True)
    params = TradeoffParameters().with_quality_weight(1.0)
    model = QCModel(scenario.space.mkb, params)
    estimated = model.evaluate(named, updated_relation="R1")
    exact = model.evaluate_exact(
        named,
        scenario.original_relations,
        scenario.space.relations(),
        updated_relation="R1",
    )
    return estimated, exact


@pytest.fixture(scope="module")
def est_vs_exact():
    return run_estimated_vs_exact()


def report_est_vs_exact(result) -> None:
    estimated, exact = result
    est_by = {e.name: e for e in estimated}
    rows = []
    for evaluation in sorted(exact, key=lambda e: e.name):
        counterpart = est_by[evaluation.name]
        rows.append(
            [
                evaluation.name,
                f"{counterpart.quality.dd:.4f}",
                f"{evaluation.quality.dd:.4f}",
                counterpart.rank,
                evaluation.rank,
            ]
        )
    emit(
        format_table(
            ["Rewriting", "DD (estimated)", "DD (exact)",
             "rank (est)", "rank (exact)"],
            rows,
            title="Ablation 1: estimation path vs materialized counting",
        )
    )


def test_ablation1_report(est_vs_exact):
    report_est_vs_exact(est_vs_exact)


def test_ablation1_rankings_agree_on_structure(est_vs_exact):
    """Winner and the superset-chain order agree between the paths.

    (Middle ranks may swap: the materialized join has only a few dozen
    result tuples, so the exact D1/D2 ratios carry sampling noise that
    the statistical estimates do not.)
    """
    estimated, exact = est_vs_exact
    est_ranks = {e.name: e.rank for e in estimated}
    exact_ranks = {e.name: e.rank for e in exact}
    assert est_ranks["V3"] == exact_ranks["V3"] == 1
    for ranks in (est_ranks, exact_ranks):
        assert ranks["V3"] < ranks["V4"] < ranks["V5"]
        assert ranks["V3"] < ranks["V2"] < ranks["V1"]


def test_ablation1_divergences_close(est_vs_exact):
    estimated, exact = est_vs_exact
    est_by = {e.name: e.quality.dd for e in estimated}
    for evaluation in exact:
        # Exact containment constraints -> estimates match the counts.
        assert evaluation.quality.dd == pytest.approx(
            est_by[evaluation.name], abs=0.02
        )


# ----------------------------------------------------------------------
# Ablation 2: overlap fallback (pessimistic 0 vs optimistic min)
# ----------------------------------------------------------------------
def run_overlap_fallback():
    """Add an unrelated same-shape relation U; compare fallbacks."""
    from repro.misd.statistics import RelationStatistics
    from repro.relational.relation import Relation
    from repro.workloadgen.generator import make_schema

    scenario = build_cardinality_scenario()
    space = scenario.space
    space.add_source("IS9")
    space.register_relation(
        "IS9",
        Relation(make_schema("U", ["A", "B", "C"])),
        RelationStatistics(cardinality=4000, tuple_size=100),
    )
    # U is declared substitutable but with an *empty-information* overlap:
    # an equivalence over the attributes exists only shape-wise; we model
    # "no PC constraint about the extent" by removing it after generation.
    equivalence = space.mkb.add_equivalence("R2", "U", ["A", "B", "C"])
    space.delete_relation("R2")
    synchronizer = ViewSynchronizer(space.mkb)
    rewritings = synchronizer.synchronize(
        scenario.view, DeleteRelation("IS1", "R2")
    )
    to_u = next(
        r for r in rewritings if "U" in r.view.relation_names
    ).renamed("VU")
    to_s3 = next(
        r for r in rewritings if "S3" in r.view.relation_names
    ).renamed("V3")

    # Pessimistic path: strike the R2/U constraint from (historical)
    # knowledge, leaving U a constraint-less substitution target.
    space.mkb.retract_pc_constraint(equivalence)
    pessimistic = estimate_extent_numbers([to_u][0], space.mkb)

    # Optimistic alternative: assume the overlap is the smaller extent.
    optimistic_overlap = min(pessimistic.original, pessimistic.rewriting)
    with_constraint = estimate_extent_numbers(to_s3, space.mkb)
    return pessimistic, optimistic_overlap, with_constraint


@pytest.fixture(scope="module")
def overlap_fallback():
    return run_overlap_fallback()


def report_overlap(result) -> None:
    pessimistic, optimistic_overlap, with_constraint = result
    emit(
        format_table(
            ["Case", "|V∩Vi| used", "D1", "D2"],
            [
                [
                    "no PC constraint, paper fallback (0)",
                    pessimistic.overlap,
                    f"{1 - pessimistic.overlap / pessimistic.original:.2f}",
                    f"{1 - pessimistic.overlap / pessimistic.rewriting:.2f}",
                ],
                [
                    "no PC constraint, optimistic min(|V|,|Vi|)",
                    optimistic_overlap,
                    f"{1 - optimistic_overlap / pessimistic.original:.2f}",
                    f"{1 - optimistic_overlap / pessimistic.rewriting:.2f}",
                ],
                [
                    "with PC constraint (S3 = R2)",
                    with_constraint.overlap,
                    "0.00",
                    "0.00",
                ],
            ],
            title="Ablation 2: overlap fallback without constraints",
        )
    )


def test_ablation2_report(overlap_fallback):
    report_overlap(overlap_fallback)


def test_ablation2_pessimistic_zeroes_unknown_overlap(overlap_fallback):
    pessimistic, _, _ = overlap_fallback
    assert pessimistic.overlap == 0.0
    assert not pessimistic.exact


def test_ablation2_optimistic_would_claim_full_quality(overlap_fallback):
    pessimistic, optimistic_overlap, _ = overlap_fallback
    # The optimistic guess equals the full original extent: an unrelated
    # relation would look as good as the true replica — the reason the
    # paper chose the pessimistic rule.
    assert optimistic_overlap == pessimistic.original


# ----------------------------------------------------------------------
# Ablation 3: bag vs set extent comparison
# ----------------------------------------------------------------------
def run_bag_vs_set():
    """Duplicate join multiplicities inflate bag counts, not set counts."""
    from repro.relational.relation import Relation
    from repro.workloadgen.generator import make_schema
    from repro.esql.parser import parse_view
    from repro.sync.rewriting import ExtentRelationship, Rewriting

    # S joins twice per R row -> bag counts double the set counts.
    r = Relation(make_schema("R", ["A"]), [(1,), (2,)])
    s = Relation(
        make_schema("S", ["A", "B"]),
        [(1, 10), (1, 11), (2, 20), (2, 21)],
    )
    view = parse_view(
        "CREATE VIEW V AS SELECT R.A FROM R, S WHERE R.A = S.A"
    )
    rewriting = Rewriting(view, view, (), ExtentRelationship.EQUAL)
    relations = {"R": r, "S": s}
    numbers = exact_extent_numbers(rewriting, relations, relations)
    bag_size = evaluate_view(view, relations).cardinality
    return numbers, bag_size


@pytest.fixture(scope="module")
def bag_vs_set():
    return run_bag_vs_set()


def test_ablation3_report(bag_vs_set):
    numbers, bag_size = bag_vs_set
    emit(
        format_table(
            ["Comparison basis", "|V| counted"],
            [
                ["set (paper: duplicates removed first)", numbers.original],
                ["bag (raw multiplicities)", bag_size],
            ],
            title="Ablation 3: bag vs set extent comparison",
        )
    )


def test_ablation3_set_semantics_deduplicate(bag_vs_set):
    numbers, bag_size = bag_vs_set
    assert numbers.original == 2  # two distinct A values
    assert bag_size == 4  # join multiplicity 2 per row
    assert numbers.overlap == numbers.original  # identical views


def test_benchmark_ablation1(benchmark):
    estimated, exact = benchmark(run_estimated_vs_exact)
    assert len(exact) == 5
    report_est_vs_exact((estimated, exact))
