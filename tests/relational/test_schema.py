"""Unit tests for schemas and attributes."""

import pytest

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


class TestAttribute:
    def test_default_type_is_int(self):
        assert Attribute("A").type is AttributeType.INT

    def test_byte_size_falls_back_to_type_default(self):
        assert Attribute("A", AttributeType.STRING).byte_size == 20

    def test_byte_size_override(self):
        assert Attribute("A", AttributeType.STRING, size=50).byte_size == 50

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")
        with pytest.raises(SchemaError):
            Attribute("bad name")

    def test_underscore_names_allowed(self):
        assert Attribute("first_name").name == "first_name"

    def test_non_positive_size_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("A", size=0)

    def test_renamed_keeps_type_and_size(self):
        original = Attribute("A", AttributeType.FLOAT, size=16)
        renamed = original.renamed("B")
        assert renamed.name == "B"
        assert renamed.type is AttributeType.FLOAT
        assert renamed.size == 16


class TestSchemaConstruction:
    def test_strings_become_attributes(self):
        schema = Schema("R", ["A", "B"])
        assert schema.attribute_names == ("A", "B")
        assert schema.arity == 2

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", ["A", "A"])

    def test_iteration_and_contains(self):
        schema = Schema("R", ["A", "B"])
        assert [a.name for a in schema] == ["A", "B"]
        assert "A" in schema
        assert "Z" not in schema

    def test_equality_and_hash(self):
        a = Schema("R", ["A", "B"])
        b = Schema("R", ["A", "B"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Schema("R", ["A"])


class TestSchemaLookup:
    def test_attribute_lookup(self):
        schema = Schema("R", [Attribute("A", AttributeType.STRING)])
        assert schema.attribute("A").type is AttributeType.STRING

    def test_unknown_attribute_names_schema(self):
        schema = Schema("R", ["A"])
        with pytest.raises(UnknownAttributeError) as excinfo:
            schema.attribute("Z")
        assert "Z" in str(excinfo.value)
        assert "R" in str(excinfo.value)

    def test_position(self):
        schema = Schema("R", ["A", "B", "C"])
        assert schema.position("B") == 1

    def test_tuple_byte_size(self):
        schema = Schema(
            "R",
            [Attribute("A"), Attribute("B", AttributeType.STRING)],
        )
        assert schema.tuple_byte_size() == 24


class TestSchemaDerivation:
    def test_project_reorders(self):
        schema = Schema("R", ["A", "B", "C"])
        projected = schema.project(["C", "A"])
        assert projected.attribute_names == ("C", "A")
        assert projected.name == "R"

    def test_project_unknown_raises(self):
        with pytest.raises(UnknownAttributeError):
            Schema("R", ["A"]).project(["Z"])

    def test_rename_relation(self):
        assert Schema("R", ["A"]).rename_relation("S").name == "S"

    def test_rename_relation_equals_a_fresh_schema(self):
        attributes = [
            Attribute("N", AttributeType.STRING, size=12),
            Attribute("K"),
            Attribute("X", AttributeType.FLOAT),
        ]
        source = Schema("R", attributes)
        renamed = source.rename_relation("S")
        fresh = Schema("S", attributes)
        assert renamed == fresh
        assert hash(renamed) == hash(fresh)
        assert renamed.attribute_names == fresh.attribute_names
        assert renamed.row_types == fresh.row_types
        assert renamed.key_position == fresh.key_position == 1
        assert renamed.tuple_byte_size() == fresh.tuple_byte_size()
        assert renamed.position("X") == 2
        # The source is untouched.
        assert source.name == "R"
        assert source == Schema("R", attributes)

    def test_rename_attribute(self):
        schema = Schema("R", ["A", "B"]).rename_attribute("A", "X")
        assert schema.attribute_names == ("X", "B")

    def test_rename_attribute_collision_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", ["A", "B"]).rename_attribute("A", "B")

    def test_drop_attribute(self):
        schema = Schema("R", ["A", "B"]).drop_attribute("A")
        assert schema.attribute_names == ("B",)

    def test_drop_last_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", ["A"]).drop_attribute("A")

    def test_add_attribute(self):
        schema = Schema("R", ["A"]).add_attribute(Attribute("B"))
        assert schema.attribute_names == ("A", "B")

    def test_add_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", ["A"]).add_attribute(Attribute("A"))


class TestSchemaConcat:
    def test_concat_disjoint(self):
        joined = Schema("R", ["A"]).concat(Schema("S", ["B"]), "RS")
        assert joined.attribute_names == ("A", "B")
        assert joined.name == "RS"

    def test_concat_qualifies_clashes(self):
        joined = Schema("R", ["A", "B"]).concat(Schema("S", ["B", "C"]), "RS")
        assert joined.attribute_names == ("A", "B", "S_B", "C")

    def test_concat_unresolvable_clash_rejected(self):
        left = Schema("R", ["B", "S_B"])
        with pytest.raises(SchemaError):
            left.concat(Schema("S", ["B"]), "RS")

    def test_common_attributes_in_left_order(self):
        left = Schema("R", ["A", "B", "C"])
        right = Schema("S", ["C", "A"])
        assert left.common_attributes(right) == ("A", "C")

    def test_common_attributes_empty(self):
        assert Schema("R", ["A"]).common_attributes(Schema("S", ["B"])) == ()
