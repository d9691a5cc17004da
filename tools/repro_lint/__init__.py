"""repro-lint: invariant-aware static analysis for this repository.

Nine PRs of parallelism, MVCC, and sharded workers left the codebase
with hand-maintained invariants that only prose and property tests
defended.  This package turns them into machine-checked rules that run
over one shared AST walk (:mod:`tools.repro_lint.facts`) plus a
lightweight import/call graph (:mod:`tools.repro_lint.project`):

========  ==============================================================
RL001     No builtin ``hash()`` in cross-process / shard-routing modules
          (``repro.sync.workers`` and everything it imports) — the
          builtin is salted per process; use ``zlib.crc32``.
RL002     No nondeterminism source (wall clock, RNG, set-order
          iteration) reachable from the modeled-cost entry points in
          ``repro.qc``, ``repro.maintenance.counters``, and
          ``repro.space.source``.
RL003     No ``EventBus`` emission reachable from worker-process code
          paths (``Process(target=...)`` roots).
RL004     Serving-plane discipline: extents read out of an
          ``ExtentStore`` must not be mutated in place — mutation goes
          through ``ExtentStore.mutable()`` staging.
RL005     Every broad ``except`` (``Exception`` / ``BaseException`` /
          bare) carries a trailing justification comment, narrows its
          type, or re-raises.
========  ==============================================================

Run ``python -m tools.repro_lint --explain RL00X`` for the full story
behind any rule, or see ``docs/static-analysis.md``.
"""

from tools.repro_lint.facts import ModuleFacts, parse_module
from tools.repro_lint.project import Project
from tools.repro_lint.rules import RULES, Rule, Violation, default_rules

__all__ = [
    "ModuleFacts",
    "Project",
    "RULES",
    "Rule",
    "Violation",
    "default_rules",
    "parse_module",
    "run",
]


def run(paths, rules=None):
    """Analyze ``paths`` (files or directories) with ``rules``.

    Returns the flat, position-sorted list of
    :class:`~tools.repro_lint.rules.Violation`.  This is the API the
    CLI, the tests, and the executable documentation all share.
    """
    project = Project.load(paths)
    chosen = list(default_rules()) if rules is None else list(rules)
    violations = []
    for rule in chosen:
        violations.extend(rule.check(project))
    violations.sort(key=lambda v: (v.path, v.lineno, v.rule))
    return violations
