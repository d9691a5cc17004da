"""The shared AST walk: one pass per module, facts for every rule.

Each source file is parsed exactly once into a :class:`ModuleFacts`
bundle.  Rules never re-walk the tree — they consume the pre-indexed
facts (call sites, assignments, stored-to chains, ``for`` iterables,
``except`` handlers, imports), which is what keeps a full-rule run on
the ``src/`` tree a single-digit-millisecond-per-file affair.

Descriptors
-----------
Expressions are summarized as *dotted descriptors*, the written form of
a name/attribute chain with subscripts flattened to ``[]``::

    hash(x)                        -> callee "hash"
    time.time()                    -> callee "time.time"
    self._extents[name].insert(r)  -> callee "self._extents[].insert"
    self._extents.get(name)        -> callee "self._extents.get"

Anything that is not a name/attribute/subscript chain (a call result,
a literal, ...) descriptors to ``None`` — rules treat that as opaque.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "AssignmentFact",
    "CallSite",
    "StoreFact",
    "ExceptFact",
    "ForIterFact",
    "FunctionFacts",
    "ModuleFacts",
    "describe",
    "parse_module",
]

#: Qualname bucket for statements at module level.
MODULE_SCOPE = "<module>"


def describe(node: ast.AST) -> str | None:
    """Dotted descriptor for a name/attribute/subscript chain, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = describe(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Subscript):
        base = describe(node.value)
        return None if base is None else f"{base}[]"
    return None


@dataclass(frozen=True)
class CallSite:
    """One ``Call`` node, summarized."""

    callee: str | None
    lineno: int
    col: int
    #: Keyword arguments whose values are bare names/dotted chains
    #: (``target=_worker_main`` -> {"target": "_worker_main"}).
    keywords: tuple[tuple[str, str], ...]
    #: How many positional arguments the call passes, of any form.
    arg_count: int = 0


@dataclass(frozen=True)
class AssignmentFact:
    """``target = <chain or call-of-chain>`` inside one function."""

    target: str
    #: Descriptor of the value: for a plain chain the chain itself; for
    #: a call, the callee descriptor suffixed ``()``; otherwise None.
    value: str | None
    lineno: int


@dataclass(frozen=True)
class StoreFact:
    """An attribute or subscript chain written in place: the target of
    an assignment, augmented assignment or ``del`` (``self._x[k] = v``
    -> ``"self._x[]"``)."""

    target: str
    lineno: int


@dataclass(frozen=True)
class ForIterFact:
    """What one ``for`` loop / comprehension iterates over."""

    #: "set()" for ``set(...)`` calls, "{...}" for set literals and set
    #: comprehensions, else the iterable's dotted descriptor or None.
    iterable: str | None
    lineno: int


@dataclass(frozen=True)
class ExceptFact:
    """One ``except`` clause with its source-line context."""

    #: Dotted descriptors of the caught types; empty tuple = bare except.
    types: tuple[str, ...]
    lineno: int
    #: True when the ``except`` line carries a trailing ``#`` comment.
    has_comment: bool
    #: True when the handler body contains a top-level bare ``raise``.
    reraises: bool


@dataclass
class FunctionFacts:
    """Everything rules ask about one function or method."""

    qualname: str
    name: str
    lineno: int
    class_name: str | None
    is_dunder_hash: bool
    calls: list[CallSite] = field(default_factory=list)
    assignments: list[AssignmentFact] = field(default_factory=list)
    stores: list[StoreFact] = field(default_factory=list)
    for_iters: list[ForIterFact] = field(default_factory=list)
    #: Names read in non-call position (function objects passed around).
    referenced: set[str] = field(default_factory=set)


@dataclass
class ModuleFacts:
    """The per-module output of the shared walk."""

    module: str
    path: Path
    #: local name -> dotted origin ("perf_counter" -> "time.perf_counter",
    #: "np" -> "numpy").  ``from X import *`` contributes "X.*" under "*".
    imports: dict[str, str]
    #: Every module named in an import statement, top-level or nested.
    imported_modules: set[str]
    functions: dict[str, FunctionFacts]
    excepts: list[ExceptFact]
    source_lines: list[str]

    def resolve(self, dotted: str) -> str:
        """Rewrite a written descriptor through the import table.

        ``perf_counter`` -> ``time.perf_counter`` when imported from
        ``time``; unknown heads pass through unchanged.
        """
        head, _, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


class _Walker(ast.NodeVisitor):
    """Single-pass collector feeding :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._class_stack: list[str] = []
        self._scope_stack: list[FunctionFacts] = [
            self._make_scope(MODULE_SCOPE, MODULE_SCOPE, 0)
        ]

    def _make_scope(
        self, qualname: str, name: str, lineno: int
    ) -> FunctionFacts:
        class_name = self._class_stack[-1] if self._class_stack else None
        scope = FunctionFacts(
            qualname=qualname,
            name=name,
            lineno=lineno,
            class_name=class_name,
            is_dunder_hash=(name == "__hash__" and class_name is not None),
        )
        self.facts.functions[qualname] = scope
        return scope

    @property
    def _scope(self) -> FunctionFacts:
        return self._scope_stack[-1]

    # -- scopes ---------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        if self._class_stack:
            qualname = f"{self._class_stack[-1]}.{node.name}"
        else:
            qualname = node.name
        self._scope_stack.append(
            self._make_scope(qualname, node.name, node.lineno)
        )
        self.generic_visit(node)
        self._scope_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.facts.imports[alias.asname] = alias.name
            else:
                # ``import os.path`` binds ``os``; the head names itself.
                head = alias.name.partition(".")[0]
                self.facts.imports[head] = head
            self.facts.imported_modules.add(alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports: out of scope for this repo (absolute only)
        self.facts.imported_modules.add(node.module)
        for alias in node.names:
            if alias.name == "*":
                self.facts.imports["*"] = f"{node.module}.*"
            else:
                self.facts.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    # -- facts ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        keywords = tuple(
            (kw.arg, described)
            for kw in node.keywords
            if kw.arg is not None
            and (described := describe(kw.value)) is not None
        )
        self._scope.calls.append(
            CallSite(
                callee=describe(node.func),
                lineno=node.lineno,
                col=node.col_offset,
                keywords=keywords,
                arg_count=len(node.args),
            )
        )
        self.generic_visit(node)

    def _record_stores(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_stores(element, lineno)
        elif isinstance(target, ast.Starred):
            self._record_stores(target.value, lineno)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            described = describe(target)
            if described is not None:
                self._scope.stores.append(StoreFact(described, lineno))

    def visit_Assign(self, node: ast.Assign) -> None:
        value = self._value_descriptor(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scope.assignments.append(
                    AssignmentFact(target.id, value, node.lineno)
                )
            self._record_stores(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._scope.assignments.append(
                AssignmentFact(
                    node.target.id,
                    self._value_descriptor(node.value),
                    node.lineno,
                )
            )
        if node.value is not None:
            self._record_stores(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_stores(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_stores(target, node.lineno)
        self.generic_visit(node)

    @staticmethod
    def _value_descriptor(value: ast.AST) -> str | None:
        if isinstance(value, ast.Call):
            callee = describe(value.func)
            return None if callee is None else f"{callee}()"
        return describe(value)

    def _record_iter(self, iterable: ast.AST, lineno: int) -> None:
        if isinstance(iterable, ast.Call) and describe(iterable.func) == "set":
            descriptor: str | None = "set()"
        elif isinstance(iterable, (ast.Set, ast.SetComp)):
            descriptor = "{...}"
        else:
            descriptor = describe(iterable)
        self._scope.for_iters.append(ForIterFact(descriptor, lineno))

    def visit_For(self, node: ast.For) -> None:
        self._record_iter(node.iter, node.lineno)
        self.generic_visit(node)

    def _visit_comprehension_holder(self, node) -> None:
        for comp in node.generators:
            self._record_iter(comp.iter, node.lineno)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_holder
    visit_SetComp = _visit_comprehension_holder
    visit_DictComp = _visit_comprehension_holder
    visit_GeneratorExp = _visit_comprehension_holder

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            types: tuple[str, ...] = ()
        elif isinstance(node.type, ast.Tuple):
            types = tuple(
                described
                for element in node.type.elts
                if (described := describe(element)) is not None
            )
        else:
            described = describe(node.type)
            types = (described,) if described is not None else ()
        line = ""
        if 0 < node.lineno <= len(self.facts.source_lines):
            line = self.facts.source_lines[node.lineno - 1]
        self.facts.excepts.append(
            ExceptFact(
                types=types,
                lineno=node.lineno,
                has_comment=_has_trailing_comment(line),
                reraises=any(
                    isinstance(stmt, ast.Raise) and stmt.exc is None
                    for stmt in ast.walk(node)
                    if isinstance(stmt, ast.Raise)
                ),
            )
        )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._scope.referenced.add(node.id)


def _has_trailing_comment(line: str) -> bool:
    """Whether a physical source line ends in a real ``#`` comment.

    Tokenized, not ``"#" in line`` — a ``#`` inside a string literal is
    not a justification.
    """
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(line).readline)
        )
    except tokenize.TokenizeError:
        # A lone physical line from a multi-line construct may not
        # tokenize standalone; fall back to the cheap check.
        return "#" in line.rsplit('"', 1)[-1].rsplit("'", 1)[-1]
    return any(token.type == tokenize.COMMENT for token in tokens)


def parse_module(path: Path, module: str | None = None) -> ModuleFacts:
    """Parse one file into its facts bundle (the shared walk)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    facts = ModuleFacts(
        module=module or path.stem,
        path=path,
        imports={},
        imported_modules=set(),
        functions={},
        excepts=[],
        source_lines=source.splitlines(),
    )
    _Walker(facts).visit(ast.parse(source, filename=str(path)))
    return facts
