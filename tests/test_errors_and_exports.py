"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_every_error_derives_from_repro_error(self):
        names = [
            "SchemaError",
            "UnknownAttributeError",
            "UnknownRelationError",
            "TypeMismatchError",
            "ParseError",
            "ConstraintError",
            "SynchronizationError",
            "ViewUndefinedError",
            "EvaluationError",
            "MaintenanceError",
            "WorkspaceError",
            "ConfigurationError",
        ]
        for name in names:
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_unknown_attribute_carries_context(self):
        error = errors.UnknownAttributeError("A", "R")
        assert error.attribute == "A"
        assert error.schema_name == "R"
        assert "A" in str(error) and "R" in str(error)

    def test_unknown_relation_carries_context(self):
        error = errors.UnknownRelationError("R", "the MKB")
        assert error.relation == "R"
        assert "the MKB" in str(error)

    def test_parse_error_position_rendering(self):
        with_position = errors.ParseError("bad token", line=3, column=7)
        assert "line 3" in str(with_position)
        without = errors.ParseError("bad token")
        assert "line" not in str(without)

    def test_view_undefined_reason(self):
        error = errors.ViewUndefinedError("V", "no replacement found")
        assert error.view_name == "V"
        assert "no replacement found" in str(error)

    def test_catching_the_base_class_works_across_subsystems(self):
        from repro.relational import Schema

        with pytest.raises(errors.ReproError):
            Schema("R", ["A", "A"])


#: The documented top-level surface, verbatim.  A new public name must
#: be added BOTH to ``repro.__all__`` and here — the drift test below
#: fails on any one-sided change, so the package cannot silently grow
#: (or lose) API.
DOCUMENTED_EXPORTS = [
    "BatchScheduled",
    "CacheInvalidated",
    "ConfigurationError",
    "DegradedToFirstLegal",
    "EVESystem",
    "EngineConfig",
    "Evaluation",
    "EventBus",
    "MaintenanceConfig",
    "MaintenanceFlush",
    "QCModel",
    "ScheduleConfig",
    "SearchConfig",
    "ShardRebalanced",
    "SynchronizationDeferred",
    "SynchronizationRecord",
    "SynchronizationResult",
    "SystemConfig",
    "SystemEvent",
    "SystemReport",
    "TradeoffParameters",
    "ViewMaintained",
    "ViewSynchronized",
    "WorkerRecycled",
    "__version__",
]


class TestPublicSurface:
    def test_top_level_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_all_matches_documented_surface_exactly(self):
        assert repro.__all__ == DOCUMENTED_EXPORTS

    def test_all_is_sorted(self):
        assert repro.__all__ == sorted(repro.__all__)

    def test_no_undocumented_public_classes(self):
        # Anything importable from the package root that looks public
        # (a class or function defined in repro.*) must be in __all__ —
        # imports used for re-export bookkeeping count as public.
        import inspect

        undocumented = [
            name
            for name, item in vars(repro).items()
            if not name.startswith("_")
            and (inspect.isclass(item) or inspect.isfunction(item))
            and (item.__module__ or "").startswith("repro")
            and name not in repro.__all__
        ]
        assert undocumented == []

    def test_presets_reachable_from_exported_config(self):
        for preset in ("reference", "columnar", "sharded", "bounded"):
            assert callable(getattr(repro.SystemConfig, preset))

    def test_subpackage_all_lists_resolve(self):
        import repro.esql
        import repro.maintenance
        import repro.misd
        import repro.qc
        import repro.relational
        import repro.space
        import repro.sync
        import repro.workloadgen

        for module in [
            repro.esql, repro.maintenance, repro.misd, repro.qc,
            repro.relational, repro.space, repro.sync, repro.workloadgen,
        ]:
            for name in module.__all__:
                assert getattr(module, name) is not None, (
                    f"{module.__name__}.{name} missing"
                )

    def test_every_public_item_has_a_docstring(self):
        import inspect

        import repro.qc
        import repro.sync

        for module in (repro.qc, repro.sync):
            for name in module.__all__:
                item = getattr(module, name)
                if inspect.isclass(item) or inspect.isfunction(item):
                    assert item.__doc__, f"{module.__name__}.{name} undocumented"
