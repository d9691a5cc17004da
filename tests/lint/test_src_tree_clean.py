"""The gate that can never rot silently: repro-lint is clean on HEAD.

CI runs ``python -m tools.repro_lint`` (src + tools) and fails on any
violation; this test asserts the same thing from inside the tier-1
suite, so a change that seeds a violation fails locally *before* CI,
and a change that breaks the analyzer itself (parse error, bad rule)
fails just as loudly.
"""

import subprocess
import sys
from pathlib import Path

from tools.repro_lint import default_rules, run
from tools.repro_lint.cli import DEFAULT_PATHS

REPO = Path(__file__).resolve().parent.parent.parent


def test_src_tree_is_clean_via_api():
    violations = run([REPO / path for path in DEFAULT_PATHS])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_src_tree_is_clean_via_module_invocation():
    """Exactly the CI command, exit code and all."""
    completed = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "clean" in completed.stdout


def test_every_registered_rule_participates_in_the_gate():
    codes = [rule.code for rule in default_rules()]
    assert codes == sorted(codes)
    assert codes == [
        "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008",
    ]
