"""The indexed engine's NULL handling, empty short-circuit and
tuple-plane projection pushdown."""

import repro.esql.evaluator as evaluator_module
from repro.config import EngineConfig
from repro.esql.evaluator import _referenced_columns, evaluate_view
from repro.esql.parser import parse_view
from repro.esql.validate import ViewValidator
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def relations():
    return {
        "R": Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20), (3, 30)]),
        "S": Relation(Schema("S", ["A", "C"]), [(1, 7), (1, 8), (3, 9)]),
    }


class TestIndexedEngine:
    def test_nulls_never_join_or_select(self):
        data = {
            "R": Relation(Schema("R", ["A", "B"]), [(1, None), (None, 5), (2, 6)]),
            "S": Relation(Schema("S", ["A", "C"]), [(None, 1), (2, 2)]),
        }
        view = parse_view(
            "CREATE VIEW V AS SELECT R.B, S.C FROM R, S "
            "WHERE R.A = S.A AND R.B > 0"
        )
        reference = evaluate_view(view, data, config=EngineConfig(engine="naive"))
        indexed = evaluate_view(view, data)
        assert indexed.rows == [(6, 2)]
        assert sorted(indexed.rows) == sorted(reference.rows)

    def test_empty_selection_short_circuits(self):
        view = parse_view(
            "CREATE VIEW V AS SELECT R.A, S.C FROM R, S "
            "WHERE R.B > 99 AND R.A = S.A"
        )
        extent = evaluate_view(view, relations())
        assert extent.rows == []
        assert extent.schema.attribute_names == ("A", "C")


class TestTuplePushdown:
    """Projection pushdown: only referenced columns flow through joins."""

    WIDE = Schema("W", ["X", "Y", "Z", "K"])

    def wide_relations(self):
        return {
            "R": Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20)]),
            # Probing on W.Z (schema position 2) with unreferenced X, Y
            # in front: pushdown must index by schema position, not by
            # projected slot offset.
            "W": Relation(
                self.WIDE, [(7, 7, 10, 100), (8, 8, 20, 200), (9, 9, 10, 300)]
            ),
        }

    VIEW = (
        "CREATE VIEW V AS SELECT R.A, W.K FROM R, W WHERE R.B = W.Z"
    )

    def test_probe_on_non_leading_attribute(self):
        view = parse_view(self.VIEW)
        reference = evaluate_view(
            view, self.wide_relations(), config=EngineConfig(engine="naive")
        )
        extent = evaluate_view(view, self.wide_relations())
        assert sorted(extent.rows) == sorted(reference.rows)
        assert sorted(extent.rows) == [(1, 100), (1, 300), (2, 200)]

    def test_referenced_columns_exclude_dead_attributes(self):
        view = parse_view(self.VIEW)
        schemas = {"R": Schema("R", ["A", "B"]), "W": self.WIDE}
        resolved = ViewValidator(schemas).resolve_view(view)
        assert _referenced_columns(resolved) == {"R.A", "R.B", "W.Z", "W.K"}

    def test_binding_width_is_referenced_columns_only(self, monkeypatch):
        """Regression pin: intermediate bindings carry exactly the
        referenced columns (4), never the full joined width (6)."""
        widths = []
        original = evaluator_module.compile_clauses

        def recording(clauses, slots):
            widths.append(len(slots))
            return original(clauses, slots)

        monkeypatch.setattr(evaluator_module, "compile_clauses", recording)
        view = parse_view(self.VIEW)
        extent = evaluate_view(view, self.wide_relations())
        assert sorted(extent.rows) == [(1, 100), (1, 300), (2, 200)]
        assert widths  # the compiled plane ran
        assert max(widths) == 4
