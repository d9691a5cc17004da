"""Quickstart: define a view, lose a relation, get a QC-ranked replacement.

Run with::

    python examples/quickstart.py

Walks the minimal EVE loop through the system API: configure the system
with a declarative :class:`~repro.config.SystemConfig` profile, register
two sources whose relations overlap (recorded as a PC constraint),
subscribe to the typed event bus, define an E-SQL view with evolution
preferences, delete the relation the view depends on, and watch the
system synchronize it to the best-ranked legal rewriting — then read the
whole story back from the serializable :class:`~repro.report.SystemReport`.
"""

from repro import (
    EVESystem,
    SystemConfig,
    ViewMaintained,
    ViewSynchronized,
)
from repro.misd import RelationStatistics
from repro.relational import Relation, Schema
from repro.space import DeleteRelation

# 0. One declarative profile configures every subsystem.  Presets:
#    SystemConfig() (the default: indexed / pruned / serial, coalesced),
#    SystemConfig.reference() (the naive everything-eager parity
#    plane), and SystemConfig.bounded(budget_units=...).
#    Profiles round-trip losslessly through JSON:
config = SystemConfig()
assert SystemConfig.from_dict(config.to_dict()) == config
eve = EVESystem(config=config)

# Observers subscribe to typed events instead of polling result state.
eve.subscribe(
    ViewSynchronized,
    lambda event: print(
        f"[event] {event.view_name} synchronized "
        f"(survived={event.survived}, "
        f"assessed={event.counters.assessed})"
    ),
)
eve.subscribe(
    ViewMaintained,
    lambda event: print(
        f"[event] {event.view_name} maintained: {event.updates} update(s) "
        f"over {'/'.join(event.relations)}, {event.counters.messages} msgs"
    ),
)

# 1. Register information sources and their relations.
eve.add_source("Primary")
eve.add_source("Mirror")
orders = Relation(
    Schema("Orders", ["OrderId", "CustomerId", "Amount"]),
    [(1, 100, 250), (2, 101, 90), (3, 100, 40)],
)
orders_mirror = Relation(
    Schema("OrdersMirror", ["OrderId", "CustomerId", "Amount"]),
    list(orders.rows),
)
eve.register_relation("Primary", orders, RelationStatistics(cardinality=3))
eve.register_relation(
    "Mirror", orders_mirror, RelationStatistics(cardinality=3)
)

# 2. Tell the MKB the mirror is equivalent to the primary.
eve.mkb.add_equivalence("Orders", "OrdersMirror")

# 3. Define an E-SQL view. AR = true marks attributes replaceable; the
#    FROM entry's RR = true marks the relation replaceable.
eve.define_view(
    """
    CREATE VIEW BigOrders (VE = '~') AS
    SELECT Orders.OrderId (AR = true),
           Orders.Amount (AD = true, AR = true)
    FROM Orders (RR = true)
    WHERE (Orders.Amount > 50) (CR = true)
    """
)
print("materialized extent:", sorted(eve.extent("BigOrders").rows))

# 4. Data updates maintain the view incrementally.  A batched stream
#    goes through apply_updates (the mirror receives the same update —
#    that is what keeps the equivalence constraint true).
eve.apply_updates(
    [
        ("Orders", "insert", (4, 102, 500)),
        ("OrdersMirror", "insert", (4, 102, 500)),
    ]
)
print("after insert:      ", sorted(eve.extent("BigOrders").rows))
print(
    "maintenance report:",
    eve.last_report.to_dict()["maintenance"]["counters"],
)

# 5. A capability change: the primary source stops offering Orders.
eve.apply_changes([DeleteRelation("Primary", "Orders")])

record = eve.vkb.record("BigOrders")
result = eve.synchronization_log[-1]
print("\nview survived:", record.alive)
print("rewritten over:", record.current.relation_names)
print(
    f"chosen rewriting QC = {result.chosen.qc:.4f} "
    f"(DD = {result.chosen.quality.dd:.4f})"
)
print("extent after rewrite:", sorted(eve.extent("BigOrders").rows))
assert sorted(eve.extent("BigOrders").rows) == [
    (1, 250), (2, 90), (4, 500),
]

# 6. The same story, machine-readable: every apply_* call leaves a
#    schema-versioned SystemReport (the JSON the benchmarks embed).
report = eve.last_report.to_dict()
assert report["operation"] == "apply_changes"
assert report["synchronization"]["survived"] == 1
print("\nrun report:", eve.last_report.to_json()[:120], "...")
print("\nquickstart OK")
