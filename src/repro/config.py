"""Typed, validated, serializable configuration profiles for the system.

Four PRs of growth scattered the system's controls across five
constructors as stringly-typed kwargs (``policy="pruned"``,
``engine="naive"``, ``use_index=``, ``representation=``, ``executor=``,
``degrade=``, ``order=``, ``coalesce=``, ``budget=``,
``budget_units=``).  This module replaces that flag soup with one
declarative surface:

* :class:`EngineConfig` — how view extents are *computed*
  (``esql.evaluator``): compiled-tuple indexed engine vs the naive
  dict-binding reference.
* :class:`SearchConfig` — how rewritings are *searched*
  (``sync.pipeline`` / ``sync.generators``): search policy, generator
  chain, top-k width.
* :class:`ScheduleConfig` — how batch synchronization is *dispatched*
  (``sync.scheduler``): wall-clock / modeled-unit budgets, degradation
  mode, ordering, coalescing.
* :class:`MaintenanceConfig` — how deltas are *propagated*
  (``maintenance.simulator``): tuple vs dict delta plane, index probes.

:class:`SystemConfig` composes the four slices and is the one object
:class:`~repro.core.eve.EVESystem` is configured with.  Named presets
(:meth:`SystemConfig.reference`, :meth:`SystemConfig.bounded`) capture
the parity planes the property tests pin against each other, and
:meth:`SystemConfig.to_dict` / :meth:`SystemConfig.from_dict`
round-trip losslessly through JSON so benchmarks, CI, and scenario
sweeps declare configurations as data.

Every field is validated at construction; invalid values raise
:class:`~repro.errors.ConfigurationError` regardless of which subsystem
the field configures.  All profiles are frozen: a configuration is a
value, shared freely and compared with ``==``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # imported lazily to avoid package cycles
    from repro.sync.generators.base import CandidateGenerator
    from repro.sync.pipeline import SearchPolicy

__all__ = [
    "EngineConfig",
    "MaintenanceConfig",
    "ScheduleConfig",
    "SearchConfig",
    "SystemConfig",
]


_ENGINES = ("indexed", "naive")
_REPRESENTATIONS = ("tuple", "dict")
_DEGRADE_MODES = ("first_legal", "defer")
_ORDERS = ("cost", "plan")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _require_choice(value: str, choices: tuple[str, ...], what: str) -> None:
    _require(
        value in choices,
        f"unknown {what} {value!r}; expected one of {', '.join(choices)}",
    )


def _require_bool(value: Any, what: str) -> None:
    # ``"false"`` is truthy: a string that reached a boolean field
    # would silently run the opposite of what it says.
    _require(
        isinstance(value, bool), f"{what} must be a bool, got {value!r}"
    )


# ----------------------------------------------------------------------
# The four slices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineConfig:
    """How view extents are computed (:func:`repro.esql.evaluator.evaluate_view`).

    ``engine``
        ``"indexed"`` (default) — compiled positional-tuple predicates,
        hash-index probes for equijoins, greedy cardinality join order;
        ``"naive"`` — the literal-order dict-binding reference engine,
        which never probes an index.
    """

    engine: str = "indexed"

    def __post_init__(self) -> None:
        _require_choice(self.engine, _ENGINES, "evaluation engine")


@dataclass(frozen=True)
class SearchConfig:
    """How rewritings are searched (:class:`~repro.sync.pipeline.RewritingSearchPipeline`).

    ``policy``
        ``"exhaustive"`` | ``"pruned"`` (default) | ``"top_k"`` |
        ``"first_legal"``; the ``"top_k(3)"`` string spelling is also
        accepted and normalized into ``policy="top_k", top_k=3``.
    ``top_k``
        Ranking width when ``policy="top_k"`` (must be >= 1 there,
        unset otherwise).
    ``generators``
        The candidate-generator chain, as registry names
        (:data:`~repro.sync.generators.GENERATOR_REGISTRY`) in chain
        order — the order fixes candidate ordering and every downstream
        tie-break.
    """

    policy: str = "pruned"
    top_k: int | None = None
    generators: tuple[str, ...] = (
        "rename",
        "drop",
        "attribute_replacement",
        "relation_replacement",
    )

    def __post_init__(self) -> None:
        from repro.sync.generators import GENERATOR_REGISTRY

        policy, k = self.policy, self.top_k
        if policy.startswith("top_k(") and policy.endswith(")"):
            try:
                parsed = int(policy[len("top_k(") : -1])
            except ValueError:
                raise ConfigurationError(
                    f"malformed search policy {policy!r}; "
                    f"expected top_k(<int>)"
                ) from None
            _require(
                k is None or k == parsed,
                f"search policy {policy!r} conflicts with top_k={k}",
            )
            policy, k = "top_k", parsed
            object.__setattr__(self, "policy", policy)
            object.__setattr__(self, "top_k", k)
        _require_choice(
            policy,
            ("exhaustive", "pruned", "top_k", "first_legal"),
            "search policy",
        )
        if policy == "top_k":
            _require(
                k is not None and k >= 1,
                "search policy 'top_k' needs top_k >= 1",
            )
        else:
            _require(
                k is None,
                f"top_k={k} is only meaningful with policy='top_k'",
            )
        object.__setattr__(self, "generators", tuple(self.generators))
        for name in self.generators:
            _require(
                name in GENERATOR_REGISTRY,
                f"unknown candidate generator {name!r}; expected one of "
                f"{', '.join(sorted(GENERATOR_REGISTRY))}",
            )

    def search_policy(self) -> "SearchPolicy":
        """The equivalent :class:`~repro.sync.pipeline.SearchPolicy`."""
        from repro.sync.pipeline import SearchPolicy

        if self.policy == "top_k":
            return SearchPolicy.top_k(self.top_k)
        return SearchPolicy(self.policy)

    @classmethod
    def from_policy(cls, policy: "SearchPolicy") -> "SearchConfig":
        """The slice a :class:`~repro.sync.pipeline.SearchPolicy` maps to."""
        if policy.kind == "top_k":
            return cls(policy="top_k", top_k=policy.k)
        return cls(policy=policy.kind)

    def build_generators(self) -> "tuple[CandidateGenerator, ...]":
        """Instantiate the configured generator chain, in order."""
        from repro.sync.generators import generators_from_names

        return generators_from_names(self.generators)


@dataclass(frozen=True)
class ScheduleConfig:
    """How batch synchronization is dispatched
    (:class:`~repro.sync.scheduler.SynchronizationScheduler`).

    Field semantics are the scheduler's: ``budget`` in wall-clock
    seconds and ``budget_units`` in modeled Eq. 24 cost units (either
    exhausts the other); ``degrade`` in ``first_legal`` | ``defer``;
    ``order`` in ``cost`` | ``plan``; ``coalesce`` (default on) runs one
    search and one rematerialization per class of views that differ
    only in name, and rebinds the results to the others — off only in
    :meth:`SystemConfig.reference`.  Dispatch is always serial, in this
    process.
    """

    budget: float | None = None
    budget_units: float | None = None
    degrade: str = "first_legal"
    order: str = "cost"
    coalesce: bool = True

    def __post_init__(self) -> None:
        _require_choice(self.degrade, _DEGRADE_MODES, "degrade mode")
        _require_choice(self.order, _ORDERS, "order")
        _require(
            self.budget is None or self.budget >= 0,
            "budget must be >= 0 seconds",
        )
        _require(
            self.budget_units is None or self.budget_units >= 0,
            "budget_units must be >= 0",
        )
        _require_bool(self.coalesce, "ScheduleConfig.coalesce")


@dataclass(frozen=True)
class MaintenanceConfig:
    """How deltas are propagated (:class:`~repro.maintenance.simulator.ViewMaintainer`).

    ``representation``
        ``"tuple"`` (default) — the compiled positional-tuple delta
        plane; ``"dict"`` — the per-row binding reference plane.
    ``use_index``
        Whether single-site queries may probe the local relation's hash
        index (``False`` forces nested loops).  Modeled CF_M/CF_T/CF_IO
        counters are byte-identical across all four combinations.
    """

    representation: str = "tuple"
    use_index: bool = True

    def __post_init__(self) -> None:
        _require_choice(
            self.representation, _REPRESENTATIONS, "delta representation"
        )
        _require_bool(self.use_index, "MaintenanceConfig.use_index")


# ----------------------------------------------------------------------
# The composed system profile
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemConfig:
    """One declarative profile for the whole EVE stack.

    ``EVESystem(config=SystemConfig(...))`` is the single entry point;
    each subsystem receives its slice.  The default ``SystemConfig()``
    is the production-shaped plane (indexed engine, tuple delta plane,
    pruned search, serial coalescing dispatch); named presets cover the
    other planes the benchmarks and property tests exercise:

    * :meth:`reference` — naive engine, dict delta plane, no index
      probes, serial plan-order dispatch without coalescing, exhaustive
      search: the everything-eager parity plane every fast path is
      compared to, and the only preset that searches every view.
    * :meth:`bounded` — the default under a budget (modeled cost units
      and/or wall-clock seconds) with a degradation mode.

    The default and every preset but :meth:`reference` coalesce views
    that differ only in name.  All presets and the default commit
    byte-identical winners,
    QC-Values, extents, and modeled CF_M/CF_T/CF_IO counters — enforced
    by ``tests/property/test_config_parity.py``.
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    maintenance: MaintenanceConfig = field(default_factory=MaintenanceConfig)

    def __post_init__(self) -> None:
        for name, type_ in _SECTIONS.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):
                object.__setattr__(self, name, _slice(type_, value))
            elif not isinstance(value, type_):
                raise ConfigurationError(
                    f"SystemConfig.{name} must be a {type_.__name__} "
                    f"(or a mapping of its fields), got {value!r}"
                )

    # -- presets --------------------------------------------------------
    @classmethod
    def reference(cls) -> "SystemConfig":
        """The naive / dict / serial parity plane (everything eager,
        one search per view: the one preset that does not coalesce)."""
        return cls(
            engine=EngineConfig(engine="naive"),
            search=SearchConfig(policy="exhaustive"),
            schedule=ScheduleConfig(order="plan", coalesce=False),
            maintenance=MaintenanceConfig(
                representation="dict", use_index=False
            ),
        )

    @classmethod
    def bounded(
        cls,
        budget_units: float | None = None,
        budget: float | None = None,
        degrade: str = "first_legal",
    ) -> "SystemConfig":
        """The default under a modeled-cost and/or wall-clock budget."""
        _require(
            budget_units is not None or budget is not None,
            "bounded() needs budget_units and/or budget",
        )
        return cls(
            schedule=ScheduleConfig(
                budget=budget,
                budget_units=budget_units,
                degrade=degrade,
            ),
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data rendition (JSON-safe, lossless under from_dict)."""
        payload = asdict(self)
        payload["search"]["generators"] = list(self.search.generators)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SystemConfig":
        """Rebuild a profile from :meth:`to_dict` output.

        Unknown sections or fields raise
        :class:`~repro.errors.ConfigurationError` — a typo'd sweep file
        must fail loudly, not silently run the default.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"SystemConfig payload must be a mapping, got {payload!r}"
            )
        unknown = set(payload) - set(_SECTIONS)
        _require(
            not unknown,
            f"unknown SystemConfig section(s): {', '.join(sorted(unknown))}",
        )
        kwargs = {}
        for name in _SECTIONS:
            if name not in payload:
                continue
            section = payload[name]
            if not isinstance(section, Mapping):
                raise ConfigurationError(
                    f"SystemConfig.{name} payload must be a mapping, "
                    f"got {section!r}"
                )
            kwargs[name] = section
        return cls(**kwargs)

    def with_schedule(self, **changes: Any) -> "SystemConfig":
        """A copy with schedule fields replaced (sweep convenience)."""
        return replace(self, schedule=replace(self.schedule, **changes))

    def with_search(self, **changes: Any) -> "SystemConfig":
        """A copy with search fields replaced (sweep convenience)."""
        return replace(self, search=replace(self.search, **changes))


#: Section name -> slice class, in ``to_dict`` order.
_SECTIONS: dict[str, Any] = {
    "engine": EngineConfig,
    "search": SearchConfig,
    "schedule": ScheduleConfig,
    "maintenance": MaintenanceConfig,
}


def _slice(type_: Any, fields_: Mapping[str, Any]) -> Any:
    """Build one config slice from a mapping of its fields; an unknown
    field raises :class:`~repro.errors.ConfigurationError` naming it
    (a removed field included), not ``TypeError``."""
    bad = set(fields_) - {f.name for f in fields(type_)}
    _require(
        not bad,
        f"unknown {type_.__name__} field(s): {', '.join(sorted(bad))}",
    )
    return type_(**fields_)
