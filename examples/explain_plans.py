"""EXPLAIN: read the plans behind evaluation and maintenance.

Run with::

    python examples/explain_plans.py

Builds the paper's travel-agency space, then inspects what the system
would do without guessing from timings: the evaluation plan for a
two-way join (greedy join order, index probe vs scan, estimated vs
actual cardinalities via ``analyze=True``), the plan of the naive
reference engine for the same view, and Algorithm 1's maintenance
itinerary for a data update.  Plans also land in every
``apply_changes``/``apply_updates`` run report under the ``plans``
section (report schema v4).
"""

from repro import EVESystem, SystemConfig
from repro.misd import RelationStatistics
from repro.relational import Attribute, AttributeType, Relation, Schema

STRING = AttributeType.STRING


def string_schema(name, attributes):
    return Schema(name, [Attribute(a, STRING) for a in attributes])


def build_system(config=None):
    eve = EVESystem(config=config, auto_synchronize=False)
    eve.add_source("Agency")
    eve.register_relation(
        "Agency",
        Relation(
            string_schema("Customer", ["Name", "City"]),
            [("ann", "nyc"), ("bob", "sfo"), ("cat", "nyc")],
        ),
        RelationStatistics(cardinality=3),
    )
    eve.register_relation(
        "Agency",
        Relation(
            string_schema("Booking", ["PName", "Dest"]),
            [
                ("ann", "asia"),
                ("bob", "europe"),
                ("cat", "asia"),
                ("cat", "europe"),
            ],
        ),
        RelationStatistics(cardinality=4),
    )
    eve.define_view(
        """
        CREATE VIEW Itineraries AS
        SELECT Customer.Name, Booking.Dest
        FROM Customer, Booking
        WHERE Customer.City = 'nyc' AND Customer.Name = Booking.PName
        """
    )
    return eve


# 1. The evaluation plan, with actuals reconciled from a traced run.
eve = build_system()
plan = eve.explain("Itineraries", analyze=True)
print(plan.to_text())
assert plan.join_order == ("Customer", "Booking")
assert [step.access for step in plan.steps] == ["scan", "index_probe"]
assert plan.actual_rows == 3

# 2. The same plan as stable data — what the run report embeds.
payload = plan.to_dict()
assert payload["kind"] == "evaluation"
assert payload["steps"][1]["probe"] == ["Booking.PName = Customer.Name"]

# 3. The naive reference engine joins in literal FROM order over dict
#    bindings; its equijoin steps hash the relation per call instead of
#    probing the relation's own index (index=off).  It evaluates the
#    view to the same bag.
reference = build_system(SystemConfig.reference())
reference_plan = reference.explain("Itineraries", analyze=True)
print()
print(reference_plan.to_text())
assert reference_plan.representation == "dict"
assert not reference_plan.use_index
assert reference_plan.join_order == ("Customer", "Booking")
assert reference_plan.actual_rows == plan.actual_rows
assert reference.extent("Itineraries") == eve.extent("Itineraries")

# 4. Algorithm 1's maintenance itinerary for an update to Booking.
itinerary = eve.explain_maintenance("Itineraries", "Booking")
print()
print(itinerary.to_text())
assert itinerary.steps[0].relation == "Customer"

# 5. Plans are captured system-wide: apply_updates leaves maintenance
#    itineraries (with actual counters) in the schema-v4 run report.
eve.apply_updates([("Booking", "insert", ("ann", "africa"))])
report = eve.last_report.to_dict()
assert report["schema_version"] == 4
assert report["plans"]["total"] == 1
assert report["plans"]["views"][0]["kind"] == "maintenance"
print()
print("report plans:", report["plans"]["total"], "captured")

print("\nexplain plans OK")
