"""Unit tests for the shared AST walk and the project call graph."""

import textwrap

from tools.repro_lint.facts import MODULE_SCOPE, parse_module
from tools.repro_lint.project import FunctionRef, Project


def write_module(tmp_path, name: str, source: str):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    return path


def test_call_sites_record_descriptors_and_keywords(tmp_path):
    path = write_module(
        tmp_path,
        "mod",
        """
        import multiprocessing

        def start(worker):
            context = multiprocessing.get_context("spawn")
            return context.Process(target=worker, daemon=True)
        """,
    )
    facts = parse_module(path)
    calls = facts.functions["start"].calls
    callees = {call.callee for call in calls}
    assert "multiprocessing.get_context" in callees
    assert "context.Process" in callees
    process = next(c for c in calls if c.callee == "context.Process")
    assert ("target", "worker") in process.keywords


def test_import_resolution_rewrites_through_the_table(tmp_path):
    path = write_module(
        tmp_path,
        "mod",
        """
        from time import perf_counter
        import datetime as dt

        def measure():
            return perf_counter(), dt.datetime.now()
        """,
    )
    facts = parse_module(path)
    assert facts.resolve("perf_counter") == "time.perf_counter"
    assert facts.resolve("dt.datetime.now") == "datetime.datetime.now"
    # Unknown heads pass through untouched.
    assert facts.resolve("obj.method") == "obj.method"


def test_except_facts_capture_comment_and_reraise(tmp_path):
    path = write_module(
        tmp_path,
        "mod",
        """
        def f(action):
            try:
                action()
            except Exception:  # reason stated here
                pass
            try:
                action()
            except Exception:
                raise
            try:
                action()
            except (KeyError, ValueError):
                pass
        """,
    )
    facts = parse_module(path)
    commented, reraising, narrowed = facts.excepts
    assert commented.has_comment and not commented.reraises
    assert reraising.reraises and not reraising.has_comment
    assert narrowed.types == ("KeyError", "ValueError")


def test_hash_in_string_is_not_a_comment(tmp_path):
    path = write_module(
        tmp_path,
        "mod",
        """
        def f(mapping):
            try:
                return mapping["#"]
            except Exception:
                return None
        """,
    )
    facts = parse_module(path)
    assert facts.excepts[0].has_comment is False


def test_call_graph_resolves_self_methods_and_imports(tmp_path):
    write_module(
        tmp_path,
        "helper",
        """
        def leaf():
            return 1
        """,
    )
    write_module(
        tmp_path,
        "mod",
        """
        from helper import leaf

        class Thing:
            def outer(self):
                return self.inner()

            def inner(self):
                return leaf()
        """,
    )
    project = Project.load([tmp_path])
    edges = project.call_edges()
    outer = FunctionRef("mod", "Thing.outer")
    inner = FunctionRef("mod", "Thing.inner")
    assert inner in edges[outer]
    assert FunctionRef("helper", "leaf") in edges[inner]

    parents = project.reachable([outer])
    chain = project.chain(parents, FunctionRef("helper", "leaf"))
    assert [str(ref) for ref in chain] == [
        "mod:Thing.outer",
        "mod:Thing.inner",
        "helper:leaf",
    ]


def test_module_scope_statements_are_collected(tmp_path):
    path = write_module(
        tmp_path,
        "mod",
        """
        import zlib

        DIGEST = zlib.crc32(b"seed")
        """,
    )
    facts = parse_module(path)
    module_calls = facts.functions[MODULE_SCOPE].calls
    assert any(call.callee == "zlib.crc32" for call in module_calls)
