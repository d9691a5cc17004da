"""Unit tests for E-SQL evolution parameters."""

import pytest

from repro.esql.params import (
    DISPENSABLE_ONLY,
    RELAXED,
    REPLACEABLE_ONLY,
    STRICT,
    AttributeCategory,
    EvolutionFlags,
    ViewExtent,
)


class TestViewExtent:
    @pytest.mark.parametrize(
        "symbol,expected",
        [
            ("~", ViewExtent.ANY),
            ("any", ViewExtent.ANY),
            ("=", ViewExtent.EQUAL),
            ("==", ViewExtent.EQUAL),
            (">=", ViewExtent.SUPERSET),
            ("SUPERSET", ViewExtent.SUPERSET),
            ("<=", ViewExtent.SUBSET),
            (" subset ", ViewExtent.SUBSET),
        ],
    )
    def test_from_symbol(self, symbol, expected):
        assert ViewExtent.from_symbol(symbol) is expected

    def test_from_symbol_unknown(self):
        with pytest.raises(ValueError):
            ViewExtent.from_symbol("whatever")

    def test_missing_tuple_policy(self):
        # D1 > 0 allowed only for ANY and SUBSET (Sec. 5.4.2).
        assert ViewExtent.ANY.allows_missing_tuples
        assert ViewExtent.SUBSET.allows_missing_tuples
        assert not ViewExtent.EQUAL.allows_missing_tuples
        assert not ViewExtent.SUPERSET.allows_missing_tuples

    def test_surplus_tuple_policy(self):
        # D2 > 0 allowed only for ANY and SUPERSET.
        assert ViewExtent.ANY.allows_surplus_tuples
        assert ViewExtent.SUPERSET.allows_surplus_tuples
        assert not ViewExtent.EQUAL.allows_surplus_tuples
        assert not ViewExtent.SUBSET.allows_surplus_tuples


class TestAttributeCategory:
    def test_of_maps_all_four(self):
        assert AttributeCategory.of(True, True) is AttributeCategory.C1
        assert AttributeCategory.of(True, False) is AttributeCategory.C2
        assert AttributeCategory.of(False, True) is AttributeCategory.C3
        assert AttributeCategory.of(False, False) is AttributeCategory.C4

    @pytest.mark.parametrize("dispensable", [True, False])
    @pytest.mark.parametrize("replaceable", [True, False])
    def test_of_matches_an_enum_scan(self, dispensable, replaceable):
        scanned = [
            member
            for member in AttributeCategory
            if (member.dispensable, member.replaceable)
            == (dispensable, replaceable)
        ]
        assert [AttributeCategory.of(dispensable, replaceable)] == scanned

    def test_preservation_requirement(self):
        # Fig. 6: categories 3/4 must stay.
        assert AttributeCategory.C3.must_be_preserved
        assert AttributeCategory.C4.must_be_preserved
        assert not AttributeCategory.C1.must_be_preserved
        assert not AttributeCategory.C2.must_be_preserved


class TestEvolutionFlags:
    def test_defaults_are_strict(self):
        flags = EvolutionFlags()
        assert not flags.dispensable
        assert not flags.replaceable
        assert flags.category is AttributeCategory.C4

    def test_named_constants(self):
        assert STRICT.category is AttributeCategory.C4
        assert RELAXED.category is AttributeCategory.C1
        assert DISPENSABLE_ONLY.category is AttributeCategory.C2
        assert REPLACEABLE_ONLY.category is AttributeCategory.C3

    def test_format_omits_defaults(self):
        assert STRICT.format("AD", "AR") == ""

    def test_format_renders_set_flags(self):
        assert RELAXED.format("AD", "AR") == " (AD = true, AR = true)"
        assert DISPENSABLE_ONLY.format("CD", "CR") == " (CD = true)"
