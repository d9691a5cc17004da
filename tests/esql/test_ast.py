"""Unit tests for the view-definition AST and its derivation methods."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.esql.ast import (
    FromItem,
    SelectItem,
    ViewDefinition,
    WhereItem,
    coalesce_fingerprint,
)
from repro.esql.params import AttributeCategory, ViewExtent
from repro.esql.parser import parse_view
from repro.relational.expressions import (
    AttributeRef,
    Comparator,
    Constant,
    PrimitiveClause,
)


@pytest.fixture
def view():
    return parse_view(
        """
        CREATE VIEW V (VE = '~') AS
        SELECT R.A (AD = true, AR = true), R.B (AD = true), S.C
        FROM R (RD = true, RR = true), S
        WHERE (R.A = S.A) (CD = true, CR = true) AND (S.C > 5)
        """
    )


class TestConstructionInvariants:
    def test_empty_select_rejected(self):
        with pytest.raises(SchemaError):
            ViewDefinition("V", [], [FromItem("R")])

    def test_empty_from_rejected(self):
        with pytest.raises(SchemaError):
            ViewDefinition("V", [SelectItem(AttributeRef("A"))], [])

    def test_duplicate_output_rejected(self):
        items = [
            SelectItem(AttributeRef("A", "R")),
            SelectItem(AttributeRef("A", "S")),
        ]
        with pytest.raises(SchemaError):
            ViewDefinition("V", items, [FromItem("R"), FromItem("S")])

    def test_duplicate_from_rejected(self):
        with pytest.raises(SchemaError):
            ViewDefinition(
                "V",
                [SelectItem(AttributeRef("A"))],
                [FromItem("R"), FromItem("R")],
            )


class TestIntrospection:
    def test_interface(self, view):
        assert view.interface == ("A", "B", "C")

    def test_condition_combines_where(self, view):
        assert len(view.condition()) == 2

    def test_select_items_from(self, view):
        assert len(view.select_items_from("R")) == 2
        assert len(view.select_items_from("S")) == 1

    def test_where_items_on(self, view):
        assert len(view.where_items_on("R")) == 1
        assert len(view.where_items_on("S")) == 2

    def test_categories(self, view):
        buckets = view.categories()
        assert len(buckets[AttributeCategory.C1]) == 1  # A
        assert len(buckets[AttributeCategory.C2]) == 1  # B
        assert len(buckets[AttributeCategory.C4]) == 1  # C

    def test_lookup_errors(self, view):
        with pytest.raises(SchemaError):
            view.select_item("Z")
        with pytest.raises(SchemaError):
            view.from_item("Z")


class TestDrops:
    def test_dropping_select_item(self, view):
        smaller = view.dropping_select_item("B")
        assert smaller.interface == ("A", "C")
        # flags of survivors unchanged
        assert smaller.select_item("A").flags.dispensable

    def test_dropping_unknown_select_item(self, view):
        with pytest.raises(SchemaError):
            view.dropping_select_item("Z")

    def test_dropping_where_item(self, view):
        smaller = view.dropping_where_item(0)
        assert len(smaller.where) == 1
        assert str(smaller.where[0].clause) == "S.C > 5"

    def test_dropping_where_out_of_range(self, view):
        with pytest.raises(SchemaError):
            view.dropping_where_item(5)

    def test_dropping_relation_cascades(self, view):
        smaller = view.dropping_relation("R")
        assert smaller.relation_names == ("S",)
        assert smaller.interface == ("C",)
        assert len(smaller.where) == 1

    def test_dropping_only_relation_rejected(self):
        single = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        with pytest.raises(SchemaError):
            single.dropping_relation("R")

    def test_dropping_relation_that_feeds_all_outputs_rejected(self):
        view = parse_view(
            "CREATE VIEW V AS SELECT R.A FROM R, S WHERE R.A = S.A"
        )
        with pytest.raises(SchemaError):
            view.dropping_relation("R")


class TestReplacements:
    def test_replacing_relation_translates_everywhere(self, view):
        replaced = view.replacing_relation("R", "T", {"A": "X", "B": "Y"})
        assert replaced.relation_names == ("T", "S")
        # Output names pinned to the original interface.
        assert replaced.interface == ("A", "B", "C")
        a_item = replaced.select_item("A")
        assert a_item.ref == AttributeRef("X", "T")
        assert str(replaced.where[0].clause) == "T.X = S.A"

    def test_replacing_relation_keeps_flags(self, view):
        replaced = view.replacing_relation("R", "T")
        assert replaced.from_item("T").flags.replaceable
        assert replaced.select_item("A").flags.dispensable

    def test_replacing_with_existing_relation_rejected(self, view):
        with pytest.raises(SchemaError):
            view.replacing_relation("R", "S")

    def test_replacing_attribute(self, view):
        replaced = view.replacing_attribute(
            AttributeRef("A", "R"), AttributeRef("X", "T")
        )
        assert replaced.select_item("A").ref == AttributeRef("X", "T")
        assert str(replaced.where[0].clause) == "T.X = S.A"

    def test_adding_from_and_where(self, view):
        clause = PrimitiveClause(
            AttributeRef("A", "T"), Comparator.GT, Constant(0)
        )
        grown = view.adding_from_item(FromItem("T")).adding_where_items(
            [WhereItem(clause)]
        )
        assert grown.relation_names == ("R", "S", "T")
        assert len(grown.where) == 3

    def test_with_extent_parameter(self, view):
        assert (
            view.with_extent_parameter(ViewExtent.EQUAL).extent_parameter
            is ViewExtent.EQUAL
        )

    def test_renamed(self, view):
        assert view.renamed("W").name == "W"


class TestEqualityHash:
    def test_equal_views_hash_equal(self):
        a = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        b = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        assert a == b
        assert hash(a) == hash(b)

    def test_flag_difference_breaks_equality(self):
        a = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        b = parse_view("CREATE VIEW V AS SELECT R.A (AD = true) FROM R")
        assert a != b


def fresh_key(view):
    """The fingerprint rendered for an unmemoized copy of ``view``."""
    return coalesce_fingerprint(
        ViewDefinition(
            view.name, view.select, view.from_, view.where,
            view.extent_parameter,
        )
    )


class TestCoalesceFingerprint:
    """The memoized class key always equals a fresh rendering."""

    def derivations(self, view):
        clause = PrimitiveClause(
            AttributeRef("A", "T"), Comparator.GT, Constant(0)
        )
        return {
            "renamed": view.renamed("W"),
            "dropping_select_item": view.dropping_select_item("B"),
            "dropping_where_item": view.dropping_where_item(0),
            "dropping_relation": view.dropping_relation("S"),
            "replacing_relation": view.replacing_relation("R", "T"),
            "replacing_attribute": view.replacing_attribute(
                AttributeRef("C", "S"), AttributeRef("C", "R")
            ),
            "adding_from_item": view.adding_from_item(FromItem("T")),
            "adding_where_items": view.adding_where_items([WhereItem(clause)]),
            "with_extent_parameter": view.with_extent_parameter(
                ViewExtent.EQUAL
            ),
        }

    @pytest.mark.parametrize("memoized", [False, True])
    def test_every_derivation_keys_its_own_definition(self, view, memoized):
        if memoized:
            coalesce_fingerprint(view)
        for label, derived in self.derivations(view).items():
            assert coalesce_fingerprint(derived) == fresh_key(derived), label

    def test_renamed_carries_the_memo_and_the_others_start_without(
        self, view
    ):
        key = coalesce_fingerprint(view)
        derived = self.derivations(view)
        assert derived.pop("renamed")._coalesce_key is key
        for label, other in derived.items():
            assert other._coalesce_key is None, label

    def test_name_is_not_part_of_the_key(self, view):
        assert coalesce_fingerprint(view.renamed("W")) == coalesce_fingerprint(
            view
        )
        assert coalesce_fingerprint(
            view.with_extent_parameter(ViewExtent.EQUAL)
        ) != coalesce_fingerprint(view)

    @pytest.mark.parametrize("memoized", [False, True])
    def test_pickling_keeps_the_key(self, view, memoized):
        if memoized:
            coalesce_fingerprint(view)
        copy = pickle.loads(pickle.dumps(view))
        assert copy == view
        assert coalesce_fingerprint(copy) == fresh_key(view)
