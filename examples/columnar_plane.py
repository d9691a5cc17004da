"""The columnar execution plane: vectorized kernels, identical answers.

Run with::

    python examples/columnar_plane.py

``SystemConfig(maintenance=MaintenanceConfig(representation="columnar"))``
switches evaluation and delta propagation to column-at-a-time kernels:
extents and delta batches travel as per-attribute columns, WHERE
conjuncts run as compiled kernels producing selection vectors, and
equijoins become vectorized hash probes over key columns.  Execution
changes; answers do not — extents and the modeled CF_M/CF_T/CF_IO
counters stay byte-identical to the row planes, which is exactly what
the parity property suites pin.

What the plane adds is *observability*: every kernel records how many
rows it scanned and how many survived, read back off the
:class:`~repro.report.SystemReport` under ``maintenance.kernels``.
"""

from repro import EVESystem, SystemConfig
from repro.config import EngineConfig, MaintenanceConfig
from repro.misd import RelationStatistics
from repro.relational import Relation, Schema

# 1. Configure the columnar plane.  Spelled out, the profile is an
#    indexed engine evaluating views columnar plus a maintainer
#    propagating deltas columnar; SystemConfig.columnar() is the
#    one-call preset for the same thing, and both round-trip losslessly
#    through JSON.
config = SystemConfig(
    engine=EngineConfig(representation="columnar"),
    maintenance=MaintenanceConfig(representation="columnar"),
)
assert config == SystemConfig.columnar()
assert SystemConfig.from_dict(config.to_dict()) == config
eve = EVESystem(config=config)

# 2. A two-source join view, small enough to read.
eve.add_source("Sales")
eve.add_source("Catalog")
eve.register_relation(
    "Sales",
    Relation(
        Schema("Orders", ["OrderId", "ProductId", "Quantity"]),
        [(1, 10, 3), (2, 11, 1), (3, 10, 5), (4, 12, 2)],
    ),
    RelationStatistics(cardinality=4),
)
eve.register_relation(
    "Catalog",
    Relation(
        Schema("Products", ["ProductId", "Price"]),
        [(10, 25), (11, 40), (12, 7)],
    ),
    RelationStatistics(cardinality=3),
)
eve.define_view(
    """
    CREATE VIEW BigLines AS
    SELECT Orders.OrderId, Products.Price
    FROM Orders, Products
    WHERE Orders.ProductId = Products.ProductId AND Orders.Quantity > 1
    """
)
print("extent:", sorted(eve.extent("BigLines").rows))
assert sorted(eve.extent("BigLines").rows) == [(1, 25), (3, 25), (4, 7)]

# 3. Maintain through an update stream; deltas propagate as columns.
eve.apply_updates(
    [
        ("Orders", "insert", (5, 11, 9)),
        ("Orders", "delete", (4, 12, 2)),
    ]
)
print("after updates:", sorted(eve.extent("BigLines").rows))
assert sorted(eve.extent("BigLines").rows) == [(1, 25), (3, 25), (5, 40)]

# 4. Kernel counters ride the run report: rows scanned vs selected
#    across every filter kernel and hash probe the flush executed.
report = eve.last_report.to_dict()
kernels = report["maintenance"]["kernels"]
print("kernels:", kernels)
assert kernels["rows_scanned"] > 0
assert 0 < kernels["rows_selected"]

# 5. The modeled maintenance counters are plane-independent: a dict
#    (reference) system fed the same story charges the exact same
#    CF_M/CF_T/CF_IO — the columnar plane only changes *execution*.
counters = report["maintenance"]["counters"]
print("modeled counters:", counters)
assert counters["messages"] > 0

print("\ncolumnar plane OK")
