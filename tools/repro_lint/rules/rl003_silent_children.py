"""RL003: worker-process code never emits bus events."""

from __future__ import annotations

from tools.repro_lint.facts import MODULE_SCOPE
from tools.repro_lint.rules import Rule, register


@register
class SilentChildrenRule(Rule):
    code = "RL003"
    summary = "no EventBus emission reachable from child-process code"
    explain = """\
The observability contract: every ``SystemEvent`` is emitted *in the
process that owns the subscribers*.  A child process emitting would be
worse than useless — the child's ``EventBus`` is a fresh copy with no
subscribers, so the event silently vanishes.  Parent-side code
therefore emits *around* dispatch to a child, never inside it.

RL003 finds child entry points structurally: any function passed as the
``target=`` of a ``Process(...)`` construction (the only way a child
would be started; the repository starts none today, and the rule
guards the next one).  From those roots it walks the lightweight call
graph and flags every reachable call whose attribute chain ends in
``.emit``, plus direct ``EventBus(...).emit`` forms.

The graph does not chase dispatch through object graphs, so emissions
buried behind an injected callable would escape it — which is exactly
why child code should keep its runtime surface explicit.  If a
child-side function legitimately needs to *report* something, return
it in the reply message and let the parent emit.  There is no
suppression comment for this rule; rename-or-return is always the fix.
"""

    def _roots(self, project):
        from tools.repro_lint.project import FunctionRef

        roots: list[FunctionRef] = []
        for module, facts in sorted(project.modules.items()):
            for function in facts.functions.values():
                for call in function.calls:
                    if not (call.callee or "").endswith("Process"):
                        continue
                    for name, value in call.keywords:
                        if name != "target":
                            continue
                        resolved = project._resolve_name(
                            facts, function.class_name, value
                        )
                        if resolved is not None:
                            roots.append(resolved)
        return roots

    def check(self, project):
        parents = project.reachable(self._roots(project))
        for ref in sorted(parents, key=str):
            if ref.qualname == MODULE_SCOPE:
                continue
            facts = project.modules[ref.module]
            function = facts.functions[ref.qualname]
            for call in function.calls:
                callee = call.callee or ""
                if callee == "emit" or callee.endswith(".emit"):
                    chain = " -> ".join(
                        str(step) for step in project.chain(parents, ref)
                    )
                    yield self.violation(
                        facts,
                        call.lineno,
                        f"bus emission ({callee}) reachable from "
                        f"child-process entry point: {chain}; children "
                        "return data in their reply, the parent emits",
                    )
