"""Tests for the typed configuration profiles.

Three contracts:

* every invalid field raises one consistent
  :class:`~repro.errors.ConfigurationError`, whatever subsystem the
  field configures;
* ``SystemConfig.from_dict(c.to_dict()) == c`` holds losslessly for the
  default and every named preset;
* the ``config=`` spellings are the only constructor spellings and
  never emit warnings (the pre-config legacy kwargs are gone).
"""

import json
import warnings

import pytest

from repro.config import (
    EngineConfig,
    MaintenanceConfig,
    ScheduleConfig,
    SearchConfig,
    SystemConfig,
)
from repro.core.eve import EVESystem
from repro.errors import ConfigurationError
from repro.esql.evaluator import evaluate_view
from repro.esql.parser import parse_view
from repro.maintenance.simulator import ViewMaintainer
from repro.misd.mkb import MetaKnowledgeBase
from repro.qc.model import QCModel
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace
from repro.sync.pipeline import RewritingSearchPipeline, SearchPolicy
from repro.sync.scheduler import SynchronizationScheduler
from repro.sync.synchronizer import ViewSynchronizer

ALL_PRESETS = {
    "default": SystemConfig(),
    "reference": SystemConfig.reference(),
    "columnar": SystemConfig.columnar(),
    "sharded": SystemConfig.sharded(2),
    "bounded-units": SystemConfig.bounded(budget_units=25.0),
    "bounded-wall": SystemConfig.bounded(budget=1.5, degrade="defer"),
}


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: EngineConfig(engine="quantum"),
            lambda: SearchConfig(policy="psychic"),
            lambda: SearchConfig(policy="top_k"),  # missing k
            lambda: SearchConfig(policy="top_k", top_k=0),
            lambda: SearchConfig(policy="pruned", top_k=3),
            lambda: SearchConfig(policy="top_k(x)"),
            lambda: SearchConfig(policy="top_k(2)", top_k=3),
            lambda: SearchConfig(generators=("rename", "teleport")),
            lambda: ScheduleConfig(executor="rayon"),
            lambda: ScheduleConfig(executor="threads"),  # removed
            lambda: ScheduleConfig(executor="processes"),  # removed
            lambda: ScheduleConfig(degrade="drop"),
            lambda: ScheduleConfig(order="random"),
            lambda: ScheduleConfig(budget=-1.0),
            lambda: ScheduleConfig(budget_units=-0.5),
            # A payload written while the schedule slice had a
            # ``max_workers`` knob fails loudly, whatever its value.
            lambda: SystemConfig.from_dict({"schedule": {"max_workers": 0}}),
            lambda: ScheduleConfig(executor="workers", shards=0),
            lambda: ScheduleConfig(shards=2),  # needs executor="workers"
            lambda: MaintenanceConfig(representation="quantum"),
            lambda: EngineConfig(representation="rowwise"),
            lambda: EngineConfig(engine="naive", representation="columnar"),
            lambda: SystemConfig(engine="indexed"),  # not a slice
            lambda: SystemConfig.bounded(),  # no budget at all
        ],
        ids=[
            "engine-name",
            "policy-name",
            "top_k-missing",
            "top_k-zero",
            "top_k-on-pruned",
            "top_k-malformed",
            "top_k-conflict",
            "generator-name",
            "executor-name",
            "executor-threads",
            "executor-processes",
            "degrade-name",
            "order-name",
            "budget-negative",
            "budget_units-negative",
            "max_workers-zero",
            "shards-zero",
            "shards-without-workers",
            "representation-name",
            "engine-representation-name",
            "columnar-on-naive",
            "slice-type",
            "bounded-empty",
        ],
    )
    def test_invalid_values_raise_configuration_error(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_error_messages_name_the_offender(self):
        with pytest.raises(ConfigurationError, match="rayon"):
            ScheduleConfig(executor="rayon")
        with pytest.raises(ConfigurationError, match="threads"):
            ScheduleConfig(executor="threads")
        with pytest.raises(ConfigurationError, match="max_workers"):
            SystemConfig.from_dict({"schedule": {"max_workers": 4}})
        with pytest.raises(ConfigurationError, match="teleport"):
            SearchConfig(generators=("teleport",))

    def test_top_k_string_spelling_normalizes(self):
        config = SearchConfig(policy="top_k(3)")
        assert (config.policy, config.top_k) == ("top_k", 3)
        assert config.search_policy() == SearchPolicy.top_k(3)
        assert config == SearchConfig(policy="top_k", top_k=3)

    def test_slices_accept_mappings(self):
        config = SystemConfig(engine={"engine": "naive"})
        assert config.engine == EngineConfig(engine="naive")

    def test_profiles_are_frozen_values(self):
        config = SystemConfig()
        with pytest.raises(AttributeError):
            config.engine = EngineConfig()
        assert SystemConfig() == SystemConfig()
        assert SystemConfig() != SystemConfig.reference()

    def test_removed_executor_knobs_are_gone(self):
        # Two executors remain (serial, workers); the threads/fork pool
        # width and the threads preset went with the other two.
        with pytest.raises(TypeError):
            ScheduleConfig(max_workers=2)
        with pytest.raises(TypeError):
            SystemConfig.sharded(2, max_workers=2)
        with pytest.raises(TypeError):
            SystemConfig().with_schedule(max_workers=2)
        assert not hasattr(SystemConfig, "fast")
        assert "max_workers" not in SystemConfig().to_dict()["schedule"]

    def test_reference_is_the_only_non_coalescing_preset(self):
        # A coalescing reference would make every parity replay against
        # it (perfbench's salvage check included) compare coalescing
        # with itself.
        assert SystemConfig().schedule.coalesce is True
        assert SystemConfig.reference().schedule.coalesce is False
        for name, config in ALL_PRESETS.items():
            assert config.schedule.coalesce is (name != "reference"), name


# ----------------------------------------------------------------------
# Serialization round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("name", list(ALL_PRESETS))
    def test_to_dict_from_dict_is_lossless(self, name):
        config = ALL_PRESETS[name]
        assert SystemConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("name", list(ALL_PRESETS))
    def test_round_trip_survives_json(self, name):
        config = ALL_PRESETS[name]
        wire = json.dumps(config.to_dict(), sort_keys=True)
        assert SystemConfig.from_dict(json.loads(wire)) == config

    def test_missing_sections_default(self):
        config = SystemConfig.from_dict({"engine": {"engine": "naive"}})
        assert config.engine.engine == "naive"
        assert config.schedule == ScheduleConfig()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="warp"):
            SystemConfig.from_dict({"warp": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="speed"):
            SystemConfig.from_dict({"engine": {"speed": 11}})

    def test_removed_optimize_field_rejected(self):
        # Payloads written while the engine slice still had an
        # ``optimize`` switch must fail loudly, not load as the default.
        with pytest.raises(ConfigurationError, match="optimize"):
            SystemConfig.from_dict({"engine": {"optimize": False}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig.from_dict("fast")
        with pytest.raises(ConfigurationError):
            SystemConfig.from_dict({"engine": "naive"})

    def test_sweep_helpers_replace_fields(self):
        swept = SystemConfig().with_schedule(budget_units=9.0)
        assert swept.schedule.budget_units == 9.0
        assert swept.schedule.coalesce is True  # other fields kept
        assert SystemConfig().with_search(policy="first_legal") == (
            SystemConfig(search=SearchConfig(policy="first_legal"))
        )


# ----------------------------------------------------------------------
# Config-only constructor spellings
# ----------------------------------------------------------------------
def tiny_space():
    space = InformationSpace()
    space.add_source("IS1")
    space.register_relation(
        "IS1", Relation(Schema("R", ["A", "B"]), [(1, 2), (3, 4)])
    )
    return space


class TestConfigSpellings:
    def test_legacy_kwargs_are_gone(self):
        # The one-release DeprecationWarning shims were removed; the old
        # spellings now fail loudly as unexpected keyword arguments.
        with pytest.raises(TypeError):
            SynchronizationScheduler(executor="threads")
        with pytest.raises(TypeError):
            ViewMaintainer(tiny_space(), use_index=False)
        with pytest.raises(TypeError):
            EVESystem(policy="first_legal")
        view = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        with pytest.raises(TypeError):
            evaluate_view(view, tiny_space().relations(), engine="naive")
        mkb = MetaKnowledgeBase()
        with pytest.raises(TypeError):
            RewritingSearchPipeline(
                ViewSynchronizer(mkb), QCModel(mkb), policy="pruned"
            )

    def test_config_spellings_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EVESystem(config=SystemConfig())
            SynchronizationScheduler(
                ScheduleConfig(executor="workers", shards=2)
            )
            ViewMaintainer(
                tiny_space(),
                config=MaintenanceConfig(representation="dict"),
            )
            mkb = MetaKnowledgeBase()
            RewritingSearchPipeline(
                ViewSynchronizer(mkb),
                QCModel(mkb),
                config=SearchConfig(),
            )

    def test_per_call_policy_override_is_not_deprecated(self):
        space = tiny_space()
        pipeline = RewritingSearchPipeline(
            ViewSynchronizer(space.mkb),
            QCModel(space.mkb),
            config=SearchConfig(),
        )
        view = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        from repro.space.changes import DeleteRelation

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            # A change on an unreferenced relation: the search returns
            # the identity rewriting without consulting the MKB routes.
            result = pipeline.search(
                view, DeleteRelation("IS9", "S"), policy="exhaustive"
            )
        assert result.survived


# ----------------------------------------------------------------------
# Engine slice semantics
# ----------------------------------------------------------------------
class TestEngineSlice:
    def test_use_index_false_matches_probed_extents(self):
        space = tiny_space()
        space.add_source("IS2")
        space.register_relation(
            "IS2", Relation(Schema("S", ["A", "C"]), [(1, 9), (3, 7)])
        )
        view = parse_view(
            "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A"
        )
        probed = evaluate_view(view, space.relations())
        unprobed = evaluate_view(
            view, space.relations(), config=EngineConfig(use_index=False)
        )
        naive = evaluate_view(
            view, space.relations(), config=EngineConfig(engine="naive")
        )
        assert probed == unprobed == naive
