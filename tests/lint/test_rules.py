"""Fixture-based self-tests: every rule fires on its seeded violation
and stays silent on the clean twin.

The fixtures under ``tests/lint/fixtures/`` are parsed, never
imported; rules whose repo defaults point at ``repro.*`` modules are
re-instantiated here with fixture-local configuration — the same
plugin surface a future rule would use.
"""

import tempfile
from pathlib import Path

import pytest

from tools.repro_lint import Project, run
from tools.repro_lint.rules import (
    RULES,
    rl002_nondeterminism,
    rl003_silent_children,
    rl004_extent_staging,
    rl005_broad_except,
    rl006_catalog_epoch,
    rl007_mkb_index,
    rl008_relation_state,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parent.parent.parent


def fixture(name: str) -> Path:
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {name}"
    return path


def check(rule, *names: str):
    project = Project.load([fixture(name) for name in names])
    return list(rule.check(project))


# ----------------------------------------------------------------------
# RL002
# ----------------------------------------------------------------------
def test_rl002_flags_clock_rng_and_set_iteration():
    rule = rl002_nondeterminism.NondeterminismRule(
        entry_modules=("rl002_bad",)
    )
    violations = check(rule, "rl002_bad.py")
    descriptions = "\n".join(v.message for v in violations)
    assert len(violations) == 3
    assert "time.time" in descriptions
    assert "random.randrange" in descriptions
    assert "set construction" in descriptions
    # The clock hides behind a private helper: the chain must name it.
    clock = next(v for v in violations if "time.time" in v.message)
    assert "modeled_cost" in clock.message and "_jitter" in clock.message


def test_rl002_clean_fixture_passes():
    rule = rl002_nondeterminism.NondeterminismRule(
        entry_modules=("rl002_clean",)
    )
    assert check(rule, "rl002_clean.py") == []


# ----------------------------------------------------------------------
# RL003
# ----------------------------------------------------------------------
def test_rl003_flags_emission_reachable_from_process_target():
    rule = rl003_silent_children.SilentChildrenRule()
    violations = check(rule, "rl003_bad.py")
    assert len(violations) == 1
    assert "BUS.emit" in violations[0].message
    # The path from the Process target through the helper is spelled out.
    assert "_child_main" in violations[0].message
    assert "_replay" in violations[0].message


def test_rl003_clean_fixture_passes():
    rule = rl003_silent_children.SilentChildrenRule()
    assert check(rule, "rl003_clean.py") == []


# ----------------------------------------------------------------------
# RL004
# ----------------------------------------------------------------------
def test_rl004_flags_every_bypass_shape():
    rule = rl004_extent_staging.ExtentStagingRule(exempt_modules=())
    violations = check(rule, "rl004_bad.py")
    assert len(violations) == 3
    messages = "\n".join(v.message for v in violations)
    assert "insert" in messages  # direct subscript mutate
    assert "delete_where" in messages  # .get() then mutate
    assert "clear" in messages  # taint through a binding
    assert all("mutable" in v.message for v in violations)


def test_rl004_clean_fixture_passes():
    rule = rl004_extent_staging.ExtentStagingRule(exempt_modules=())
    assert check(rule, "rl004_clean.py") == []


def test_rl004_exempt_module_is_skipped():
    rule = rl004_extent_staging.ExtentStagingRule(
        exempt_modules=("rl004_bad",)
    )
    assert check(rule, "rl004_bad.py") == []


# ----------------------------------------------------------------------
# RL005
# ----------------------------------------------------------------------
def test_rl005_flags_unjustified_broad_handlers():
    rule = rl005_broad_except.BroadExceptRule()
    violations = check(rule, "rl005_bad.py")
    assert len(violations) == 2
    assert any("Exception" in v.message for v in violations)
    assert any("bare except" in v.message for v in violations)


def test_rl005_clean_fixture_passes():
    rule = rl005_broad_except.BroadExceptRule()
    assert check(rule, "rl005_clean.py") == []


# ----------------------------------------------------------------------
# RL006
# ----------------------------------------------------------------------
def test_rl006_flags_writes_outside_the_catalog_module():
    rule = rl006_catalog_epoch.CatalogEpochRule()
    violations = check(rule, "rl006_bad.py")
    # Outside the owner module every write counts, the __init__
    # assignment included: 7 (init), 14 (method), 19 (pop), 20 (store)
    # and 25 (del).
    assert sorted(v.lineno for v in violations) == [7, 14, 19, 20, 25]
    messages = "\n".join(v.message for v in violations)
    assert "_relations.pop" in messages
    assert "_relations[]" in messages
    assert all("repro.relational.catalog" in v.message for v in violations)


def test_rl006_owner_writes_must_move_the_epoch():
    rule = rl006_catalog_epoch.CatalogEpochRule(owner_module="rl006_bad")
    violations = check(rule, "rl006_bad.py")
    # As the owner, __init__ may write; the three writers that never
    # call _moved() may not.
    flagged = {v.message.split()[0] for v in violations}
    assert flagged == {"Catalog.replace", "rehost", "forget"}
    assert all("without calling _moved()" in v.message for v in violations)


def test_rl006_clean_fixture_passes():
    rule = rl006_catalog_epoch.CatalogEpochRule(owner_module="rl006_clean")
    assert check(rule, "rl006_clean.py") == []


def test_rl006_guards_the_real_catalog():
    """Every mutator of the real Catalog moves the epoch and stamps the
    names it wrote, and the rule sees them: dropping one bump from a
    copy fires it, and so does dropping the names from one."""
    source = (REPO / "src" / "repro" / "relational" / "catalog.py").read_text()
    bump = "        self._moved(relation.name)\n"
    assert bump in source
    rule = rl006_catalog_epoch.CatalogEpochRule(owner_module="catalog")
    with tempfile.TemporaryDirectory() as tmp:
        module = Path(tmp) / "catalog.py"
        module.write_text(source)
        assert list(rule.check(Project.load([module]))) == []
        module.write_text(source.replace(bump, "", 1))
        (violation,) = rule.check(Project.load([module]))
        assert "Catalog.add" in violation.message
        assert "without calling _moved()" in violation.message
        module.write_text(
            source.replace(bump, "        self._moved()\n", 1)
        )
        (violation,) = rule.check(Project.load([module]))
    assert "Catalog.add" in violation.message
    assert "no relation name" in violation.message


# ----------------------------------------------------------------------
# RL007
# ----------------------------------------------------------------------
def test_rl007_flags_mkb_writes_outside_the_mkb_module():
    rule = rl007_mkb_index.MKBIndexRule()
    violations = check(rule, "rl007_bad.py")
    # Two list-method calls, three stores (plain, del, augmented), a
    # mutator through a subscript, a subscript store and ``+=``.
    assert sorted(v.lineno for v in violations) == [
        6, 7, 12, 13, 14, 19, 20, 21,
    ]
    messages = "\n".join(v.message for v in violations)
    assert "mkb._index[].append" in messages
    assert "mkb._sync_pc[]" in messages
    assert all("repro.misd.mkb" in v.message for v in violations)


def test_rl007_clean_fixture_passes():
    rule = rl007_mkb_index.MKBIndexRule()
    assert check(rule, "rl007_clean.py") == []


def test_rl007_guards_the_real_mkb():
    """The rule sees the real MKB's writes: as the owner module they are
    allowed, and the same source under another module name fires."""
    source = (REPO / "src" / "repro" / "misd" / "mkb.py").read_text()
    with tempfile.TemporaryDirectory() as tmp:
        module = Path(tmp) / "mkb.py"
        module.write_text(source)
        project = Project.load([module])
        owner = rl007_mkb_index.MKBIndexRule(owner_module="mkb")
        assert list(owner.check(project)) == []
        flagged = {
            v.message.split(":")[0]
            for v in rl007_mkb_index.MKBIndexRule().check(project)
        }
    assert "self._pc_constraints.append" in flagged
    assert "self._index_version" in flagged


# ----------------------------------------------------------------------
# RL008
# ----------------------------------------------------------------------
def test_rl008_flags_relation_state_writes_outside_the_relation_module():
    rule = rl008_relation_state.RelationStateRule()
    violations = check(rule, "rl008_bad.py")
    # Two list/array writers, three stores (plain, del, augmented), two
    # dict writers and a subscript store.
    assert sorted(v.lineno for v in violations) == [
        6, 7, 12, 13, 14, 19, 20, 21,
    ]
    messages = "\n".join(v.message for v in violations)
    assert "relation._rows.append" in messages
    assert "relation._indexes.clear" in messages
    assert all("repro.relational.relation" in v.message for v in violations)


def test_rl008_clean_fixture_passes():
    rule = rl008_relation_state.RelationStateRule()
    assert check(rule, "rl008_clean.py") == []


def test_rl008_guards_the_real_relation():
    """The rule sees the real relation's writes: as the owner module
    they are allowed, and the same source under another module name
    fires."""
    source = (REPO / "src" / "repro" / "relational" / "relation.py").read_text()
    with tempfile.TemporaryDirectory() as tmp:
        module = Path(tmp) / "relation.py"
        module.write_text(source)
        project = Project.load([module])
        owner = rl008_relation_state.RelationStateRule(owner_module="relation")
        assert list(owner.check(project)) == []
        flagged = {
            v.message.split(":")[0]
            for v in rl008_relation_state.RelationStateRule().check(project)
        }
    assert "self._rows.append" in flagged
    assert "relation._locator" in flagged


def test_rl004_flags_a_run_on_an_extent_read_from_the_store():
    rule = rl004_extent_staging.ExtentStagingRule(exempt_modules=())
    with tempfile.TemporaryDirectory() as tmp:
        module = Path(tmp) / "runs.py"
        module.write_text(
            "def land(system, name, ops):\n"
            "    system._extents[name].apply_run(ops)\n"
        )
        (violation,) = rule.check(Project.load([module]))
    assert "apply_run" in violation.message


# ----------------------------------------------------------------------
# Cross-cutting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(RULES))
def test_every_rule_has_explain_text(code):
    rule_class = RULES[code]
    assert rule_class.summary, f"{code} missing summary"
    assert len(rule_class.explain) > 200, f"{code} --explain text too thin"


def test_run_api_sorts_and_aggregates():
    violations = run(
        [fixture("rl005_bad.py"), fixture("rl005_clean.py")],
        [rl005_broad_except.BroadExceptRule()],
    )
    assert [v.lineno for v in violations] == sorted(
        v.lineno for v in violations
    )
    assert all(Path(v.path).name == "rl005_bad.py" for v in violations)
