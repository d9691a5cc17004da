"""Project model: modules and a lightweight call graph.

The call graph is deliberately *lightweight*: it resolves

* plain calls to functions defined in the same module,
* ``self.method()`` calls within a class,
* calls through ``from pkg.mod import func`` / ``import pkg.mod`` to
  functions defined in other analyzed modules,

and treats everything else (methods on arbitrary objects, call
results, dynamic dispatch) as opaque.  That boundary is a feature:
rules stay fast and their findings stay explainable as concrete
chains (``child_main -> run_batch -> events.emit``), at the
cost of not chasing dispatch through object graphs.  The invariants
the rules defend live in exactly the code shapes the graph resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from tools.repro_lint.facts import MODULE_SCOPE, CallSite, ModuleFacts, parse_module

__all__ = ["FunctionRef", "Project"]


@dataclass(frozen=True)
class FunctionRef:
    """A function pinned to its module: the call-graph node."""

    module: str
    qualname: str

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}"


def _module_name(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


class Project:
    """Every analyzed module plus the graphs the rules traverse."""

    def __init__(self, modules: dict[str, ModuleFacts]) -> None:
        self.modules = modules
        self._edges: dict[FunctionRef, set[FunctionRef]] | None = None

    @classmethod
    def load(cls, paths) -> "Project":
        files: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        modules: dict[str, ModuleFacts] = {}
        for file in files:
            facts = parse_module(file, _module_name(file))
            modules[facts.module] = facts
        return cls(modules)

    # -- call graph -----------------------------------------------------
    def _resolve_call(
        self, facts: ModuleFacts, scope_class: str | None, call: CallSite
    ) -> FunctionRef | None:
        return self._resolve_name(facts, scope_class, call.callee)

    def _resolve_name(
        self, facts: ModuleFacts, scope_class: str | None, dotted: str | None
    ) -> FunctionRef | None:
        if dotted is None or "[]" in dotted:
            return None
        head, _, rest = dotted.partition(".")
        # self.method() inside a class body.
        if head == "self" and scope_class and rest and "." not in rest:
            qualname = f"{scope_class}.{rest}"
            if qualname in facts.functions:
                return FunctionRef(facts.module, qualname)
            return None
        # Same-module plain function (or ClassName.method reference).
        if not rest and dotted in facts.functions:
            return FunctionRef(facts.module, dotted)
        # Through the import table: from pkg.mod import func / import pkg.
        origin = facts.resolve(dotted)
        module, _, func = origin.rpartition(".")
        if module in self.modules and func in self.modules[module].functions:
            return FunctionRef(module, func)
        if origin in self.modules:
            return FunctionRef(origin, MODULE_SCOPE)
        return None

    def call_edges(self) -> dict[FunctionRef, set[FunctionRef]]:
        """callee edges per function, resolved once and cached."""
        if self._edges is not None:
            return self._edges
        edges: dict[FunctionRef, set[FunctionRef]] = {}
        for facts in self.modules.values():
            for function in facts.functions.values():
                ref = FunctionRef(facts.module, function.qualname)
                targets = edges.setdefault(ref, set())
                for call in function.calls:
                    resolved = self._resolve_call(
                        facts, function.class_name, call
                    )
                    if resolved is not None:
                        targets.add(resolved)
        self._edges = edges
        return edges

    def reachable(
        self, roots: list[FunctionRef]
    ) -> dict[FunctionRef, FunctionRef | None]:
        """BFS over call edges; maps each reached node to its parent.

        The parent chain reconstructs a concrete ``root -> ... -> sink``
        path for violation messages.
        """
        edges = self.call_edges()
        parents: dict[FunctionRef, FunctionRef | None] = {}
        frontier: list[FunctionRef] = []
        for root in roots:
            if root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            node = frontier.pop(0)
            for target in sorted(edges.get(node, ()), key=str):
                if target not in parents:
                    parents[target] = node
                    frontier.append(target)
        return parents

    @staticmethod
    def chain(
        parents: dict[FunctionRef, FunctionRef | None], node: FunctionRef
    ) -> list[FunctionRef]:
        """Root-first path to ``node`` out of a :meth:`reachable` map."""
        path = [node]
        while (parent := parents[path[-1]]) is not None:
            path.append(parent)
        return list(reversed(path))

    def function(self, ref: FunctionRef):
        return self.modules[ref.module].functions[ref.qualname]
