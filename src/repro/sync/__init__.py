"""View synchronization: detecting affected views and rewriting them.

Public surface:

* :class:`ViewKnowledgeBase` / :class:`ViewRecord` — the VKB of Fig. 1
* :class:`ViewSynchronizer` — legal-rewriting generation (SVS/CVS moves,
  pluggable :mod:`repro.sync.generators` strategies)
* :class:`RewritingSearchPipeline` / :class:`SearchPolicy` /
  :class:`StageCounters` — the streaming synchronize-and-rank pipeline
* :class:`Rewriting`, the :class:`Move` hierarchy,
  :class:`ExtentRelationship` — rewriting provenance
* :func:`check_legality` / :func:`is_legal` — independent legality audit
"""

from repro.sync.heuristic import HeuristicOutcome, HeuristicSynchronizer
from repro.sync.legality import LegalityReport, check_legality, is_legal
from repro.sync.pipeline import (
    PipelineResult,
    RewritingSearchPipeline,
    SearchPolicy,
    StageCounters,
)
from repro.sync.rewriting import (
    AddJoinMove,
    DropAttributeMove,
    DropConditionMove,
    DropRelationMove,
    ExtentRelationship,
    Move,
    RenameMove,
    ReplaceAttributeMove,
    ReplaceRelationMove,
    Rewriting,
    combine_extent,
)
from repro.sync.scheduler import (
    BatchWorkPlan,
    ChainGroup,
    DeferredSynchronization,
    ScheduleReport,
    SynchronizationScheduler,
    ViewWorkItem,
    build_work_plan,
)
from repro.sync.synchronizer import ViewSynchronizer
from repro.sync.vkb import ViewKnowledgeBase, ViewRecord

__all__ = [
    "AddJoinMove",
    "BatchWorkPlan",
    "ChainGroup",
    "DeferredSynchronization",
    "DropAttributeMove",
    "DropConditionMove",
    "DropRelationMove",
    "ExtentRelationship",
    "HeuristicOutcome",
    "HeuristicSynchronizer",
    "LegalityReport",
    "Move",
    "PipelineResult",
    "RenameMove",
    "ReplaceAttributeMove",
    "ReplaceRelationMove",
    "Rewriting",
    "RewritingSearchPipeline",
    "ScheduleReport",
    "SearchPolicy",
    "StageCounters",
    "SynchronizationScheduler",
    "ViewKnowledgeBase",
    "ViewRecord",
    "ViewSynchronizer",
    "ViewWorkItem",
    "build_work_plan",
    "check_legality",
    "combine_extent",
    "is_legal",
]
