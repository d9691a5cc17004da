"""Trade-off explorer: how the QC ranking responds to every model knob.

Run with::

    python examples/tradeoff_explorer.py

Uses the Experiment 4 scenario (five substitute relations of growing
cardinality for a deleted one) driven through the system API: one
:class:`~repro.config.SystemConfig` profile configures the stack, the
candidate spectrum comes from ``EVESystem.candidate_rewritings``, and
each sweep step re-ranks it with ``EVESystem.rank_rewritings`` under
different :class:`~repro.qc.TradeoffParameters`.  Sweeps the
quality/cost weight from pure-quality to pure-cost, printing which
rewriting wins at each setting and where the crossover falls; then
shows the effect of the extent weights rho_d1/rho_d2 (punishing lost
tuples vs surplus tuples).  Finally the winning rewriting is committed
for real, observed through the typed event bus.
"""

from repro import (
    EVESystem,
    SystemConfig,
    TradeoffParameters,
    ViewSynchronized,
)
from repro.core.report import format_table
from repro.space import DeleteRelation
from repro.workloadgen import build_cardinality_scenario

#: One profile for every system in this script (the default plane; the
#: ranking itself is engine-independent, as the parity tests enforce).
CONFIG = SystemConfig()

scenario = build_cardinality_scenario()
explorer = EVESystem(
    space=scenario.space, auto_synchronize=False, config=CONFIG
)
explorer.define_view(scenario.view, materialize=False)
change = explorer.space.delete_relation("R2")
rewritings = explorer.candidate_rewritings(scenario.view.name, change)
rewritings.sort(key=lambda r: r.moves[-1].new_relation)
named = [r.renamed(f"V{i + 1}") for i, r in enumerate(rewritings)]
print(
    f"{len(named)} legal rewritings for the deleted R2 "
    f"(substitutes S1..S5, 2000..6000 tuples)\n"
)


def rank(params):
    """One ranking under one parameter setting, via the system API."""
    system = EVESystem(
        params=params,
        space=scenario.space,
        auto_synchronize=False,
        config=CONFIG,
    )
    return system.rank_rewritings(named, updated_relation="R1")


# ----------------------------------------------------------------------
# Sweep 1: quality weight from 1.0 down to 0.0
# ----------------------------------------------------------------------
rows = []
previous_winner = None
crossovers = []
for step in range(0, 21):
    rho_quality = 1.0 - step * 0.05
    params = TradeoffParameters().with_quality_weight(round(rho_quality, 2))
    evaluations = rank(params)
    winner = evaluations[0]
    if previous_winner is not None and winner.name != previous_winner:
        crossovers.append((round(rho_quality, 2), previous_winner, winner.name))
    previous_winner = winner.name
    rows.append(
        [
            f"{rho_quality:.2f}",
            winner.name,
            f"{winner.qc:.4f}",
            " > ".join(e.name for e in evaluations),
        ]
    )
print(
    format_table(
        ["rho_quality", "winner", "QC", "full ranking"],
        rows,
        title="Sweep: quality weight vs chosen rewriting",
    )
)
print("\ncrossovers:", crossovers or "none")
assert rows[0][1] == "V3", "pure quality must pick the exact substitute"
assert rows[-1][1] == "V1", "pure cost must pick the smallest substitute"

# ----------------------------------------------------------------------
# Sweep 2: punishing lost tuples vs surplus tuples
# ----------------------------------------------------------------------
print()
rows = []
for rho_d1 in (1.0, 0.75, 0.5, 0.25, 0.0):
    params = TradeoffParameters(
        rho_d1=rho_d1, rho_d2=1.0 - rho_d1
    ).with_quality_weight(1.0)
    evaluations = rank(params)
    quality_order = " > ".join(e.name for e in evaluations)
    rows.append([f"{rho_d1:.2f}", f"{1 - rho_d1:.2f}", quality_order])
print(
    format_table(
        ["rho_d1 (lost)", "rho_d2 (surplus)", "quality-only ranking"],
        rows,
        title="Sweep: extent weights (pure quality)",
    )
)
# Punishing only lost tuples makes every superset substitute perfect;
# punishing only surplus makes every subset substitute perfect.
only_lost = rows[0][2]
only_surplus = rows[-1][2]
assert only_lost.index("V4") < only_lost.index("V1")
assert only_surplus.index("V1") < only_surplus.index("V4")

# ----------------------------------------------------------------------
# Commit the default-parameter winner for real, watched on the bus
# ----------------------------------------------------------------------
print()
committed = EVESystem(
    space=build_cardinality_scenario().space, config=CONFIG
)
committed.define_view(scenario.view, materialize=False)
events = []
committed.subscribe(ViewSynchronized, events.append)
committed.apply_changes([DeleteRelation("IS1", "R2")])
(event,) = events
print(
    f"committed for real: {event.view_name} -> "
    f"{event.result.chosen.rewriting.view.relation_names} "
    f"(QC = {event.result.chosen.qc:.4f}, "
    f"assessed {event.counters.assessed} of "
    f"{event.counters.legal} legal candidates)"
)
report = committed.last_report.to_dict()
assert report["synchronization"]["survived"] == 1
print("\ntradeoff explorer OK")
