"""Reproduction of "Data Warehouse Evolution: Trade-offs between Quality
and Cost of Query Rewritings" (Lee, Koeller, Nica, Rundensteiner; WPI
TR-98-2 / ICDE 1999) — the QC-Model of the EVE project, with every
substrate it depends on implemented here:

* :mod:`repro.relational` — in-memory relational engine
* :mod:`repro.esql` — the E-SQL language (parser, AST, evaluator)
* :mod:`repro.misd` — MISD constraints and the Meta Knowledge Base
* :mod:`repro.space` — the distributed information space simulation
* :mod:`repro.sync` — view synchronization (rewriting generation/legality)
* :mod:`repro.qc` — the QC-Model (quality, cost, workload, ranking)
* :mod:`repro.maintenance` — Algorithm 1 executed with measured counters
* :mod:`repro.workloadgen` — experiment scenario generators
* :mod:`repro.core` — the :class:`~repro.core.eve.EVESystem` facade
* :mod:`repro.config` — typed, serializable system configuration profiles
* :mod:`repro.events` — the typed event/observer bus
* :mod:`repro.report` — serializable per-call run reports

Quickstart::

    from repro import EVESystem, SystemConfig, ViewSynchronized
    eve = EVESystem(config=SystemConfig())
    eve.subscribe(ViewSynchronized, lambda event: print(event.view_name))
    ...

See README.md for the guided tour and DESIGN.md for the paper mapping.
"""

from repro.config import (
    EngineConfig,
    MaintenanceConfig,
    ScheduleConfig,
    SearchConfig,
    SystemConfig,
)
from repro.core.eve import EVESystem, SynchronizationResult
from repro.errors import ConfigurationError
from repro.events import (
    BatchScheduled,
    CacheInvalidated,
    DegradedToFirstLegal,
    EventBus,
    SynchronizationDeferred,
    SystemEvent,
    ViewMaintained,
    ViewSynchronized,
)
from repro.qc.model import Evaluation, QCModel
from repro.qc.params import TradeoffParameters
from repro.report import (
    MaintenanceFlush,
    SynchronizationRecord,
    SystemReport,
)

__version__ = "2.0.0"

__all__ = [
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
    "SynchronizationDeferred",
    "SynchronizationRecord",
    "SynchronizationResult",
    "SystemConfig",
    "SystemEvent",
    "SystemReport",
    "TradeoffParameters",
    "ViewMaintained",
    "ViewSynchronized",
    "__version__",
]
