"""RL005: broad exception handlers carry their justification."""

from __future__ import annotations

from tools.repro_lint.rules import Rule, register

#: Caught types considered "broad".  Dotted forms included so
#: ``builtins.Exception`` cannot dodge the rule.
BROAD_TYPES = frozenset(
    {"Exception", "BaseException", "builtins.Exception",
     "builtins.BaseException"}
)


@register
class BroadExceptRule(Rule):
    code = "RL005"
    summary = (
        "except Exception / BaseException / bare except must justify "
        "itself, narrow its type, or re-raise"
    )
    explain = """\
A broad ``except Exception`` swallows everything: the typo'd attribute,
the KeyError from a refactor, the SynchronizationError that should
have aborted the batch.  The repo's own history shows both sides of
the line — ``misd/mkb.py`` catches broadly *with a stated reason*
(``# noqa: BLE001 - collecting, not handling``: validation that must
report every problem at once), while two modeled-cost call sites used
to catch broadly by accident and turned an unknown relation into a
misleading downstream error.

RL005 requires every handler for ``Exception``, ``BaseException``, or
a bare ``except:`` to do one of three things:

* **narrow** — catch the exception type the code actually anticipates
  (``except UnknownRelationError:``);
* **justify** — keep the broad catch but say why, in a trailing
  comment on the ``except`` line itself (the ``# noqa: BLE001 -
  <reason>`` convention from ``misd/mkb.py``; any trailing comment
  satisfies the rule, the convention keeps it greppable);
* **re-raise** — a handler containing a bare ``raise`` is cleanup, not
  swallowing (a teardown-then-reraise pattern), and passes.

The comment must be on the ``except`` line, not above it — that is
what keeps the justification attached when code moves.  Handlers for
narrowed types, including tuples of specific types, are never flagged.
"""

    def check(self, project):
        for _, facts in sorted(project.modules.items()):
            for handler in facts.excepts:
                broad = (
                    not handler.types
                    or any(name in BROAD_TYPES for name in handler.types)
                )
                if not broad or handler.has_comment or handler.reraises:
                    continue
                caught = ", ".join(handler.types) or "bare except"
                yield self.violation(
                    facts,
                    handler.lineno,
                    f"broad handler ({caught}) without justification: "
                    "narrow the type, add a trailing '# noqa: BLE001 - "
                    "<reason>' comment, or re-raise",
                )
