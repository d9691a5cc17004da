"""RL002: modeled-cost paths must be free of nondeterminism sources."""

from __future__ import annotations

from tools.repro_lint.facts import MODULE_SCOPE
from tools.repro_lint.rules import Rule, register

#: Modules whose public functions/methods are modeled-cost entry points.
DEFAULT_ENTRY_MODULES = (
    "repro.qc",  # package prefix: every repro.qc.* module
    "repro.maintenance.counters",
    "repro.space.source",
)

#: Resolved call origins that read a wall clock or an RNG.
WALL_CLOCK_AND_RNG = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Origin prefixes that are nondeterministic wholesale.
SOURCE_PREFIXES = ("random.", "secrets.")


@register
class NondeterminismRule(Rule):
    code = "RL002"
    summary = (
        "no wall clock / RNG / set-order iteration reachable from "
        "modeled-cost entry points"
    )
    explain = """\
CF_M, CF_T, and CF_IO are *modeled* counters: the paper's cost formulas
computed from cardinalities and schema widths, not measured from the
host (PAPER.md section 5; ROADMAP "model vs simulation").  The repo's
whole verification story leans on that — ``bench_sim_vs_model``,
the engine-equivalence property tests, and the scheduler parity tests
all assert byte-identical counters across runs and configurations.
One ``time.time()`` or ``random.choice`` on a modeled path breaks every
one of those oracles at once, and usually only under load.

RL002 taints the classic nondeterminism sources — wall clocks
(``time.time``/``monotonic``/``perf_counter`` and friends),
``datetime.now``-style constructors, ``random.*`` / ``secrets.*`` /
``os.urandom`` / ``uuid.uuid1|4`` — plus *iteration directly over a
set construction* (``for x in set(...)`` / ``for x in {...}``), whose
order is interpreter-dependent, and reports any such source reachable
on the lightweight call graph from a public function or method of the
modeled-cost modules: ``repro.qc.*``, ``repro.maintenance.counters``,
and ``repro.space.source``.

Boundaries, stated plainly: the graph resolves plain calls,
``self.`` methods, and imported functions of analyzed modules — not
dynamic dispatch through arbitrary objects — and set iteration is
only flagged when the set is constructed in iteration position (a
set-typed *variable* is invisible to the AST).  Sort or list() the
construction (``for x in sorted(...)``) to make order explicit.

Measured wall-clock time is still fine where it is *labeled* as
measurement (scheduler ``worker_seconds``, benchmark harnesses) —
those modules are not entry points here.  If a modeled module ever
genuinely needs a clock (it should not), isolate it behind an injected
parameter so the call site stays out of this rule's reach, and say why
in the PR.
"""

    def __init__(
        self, entry_modules: tuple[str, ...] = DEFAULT_ENTRY_MODULES
    ) -> None:
        self.entry_modules = entry_modules

    def _is_entry_module(self, module: str) -> bool:
        return any(
            module == entry or module.startswith(f"{entry}.")
            for entry in self.entry_modules
        )

    def _entry_points(self, project):
        from tools.repro_lint.project import FunctionRef

        for module, facts in sorted(project.modules.items()):
            if not self._is_entry_module(module):
                continue
            for function in facts.functions.values():
                public = not function.name.startswith("_")
                if public or function.qualname == MODULE_SCOPE:
                    yield FunctionRef(module, function.qualname)

    def _sources_in(self, facts, function):
        """(lineno, description) for every direct source in a function."""
        for call in function.calls:
            callee = call.callee
            if callee is None or "[]" in callee or callee.startswith("self."):
                continue
            head = callee.partition(".")[0]
            if head not in facts.imports:
                continue
            origin = facts.resolve(callee)
            if origin in WALL_CLOCK_AND_RNG or origin.startswith(
                SOURCE_PREFIXES
            ):
                yield call.lineno, f"call to {origin}"
        for loop in function.for_iters:
            if loop.iterable in ("set()", "{...}"):
                yield loop.lineno, (
                    "iteration over a set construction (order is "
                    "interpreter-dependent)"
                )

    def check(self, project):
        parents = project.reachable(list(self._entry_points(project)))
        for ref in sorted(parents, key=str):
            facts = project.modules[ref.module]
            function = facts.functions[ref.qualname]
            for lineno, description in self._sources_in(facts, function):
                chain = " -> ".join(
                    str(step) for step in project.chain(parents, ref)
                )
                yield self.violation(
                    facts,
                    lineno,
                    f"nondeterminism on a modeled-cost path: {description} "
                    f"in {ref.qualname} (reached via {chain}); modeled "
                    "CF_M/CF_T/CF_IO must be reproducible byte for byte",
                )
