"""End-to-end lint tests: runner, CLI exit codes, and the baseline ratchet.

The acceptance contract lives here: ``repro lint`` exits non-zero on a
seeded determinism, registry or dispatch violation (driven through the
real CLI against tmp-dir fixture trees) and exits zero on the committed
tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import load_baseline, run_lint, write_baseline
from repro.lint.findings import Finding

REPO = Path(__file__).resolve().parent.parent.parent


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


@pytest.fixture()
def fixture_tree(tmp_path):
    """A minimal lintable package tree that passes every rule."""
    root = tmp_path / "pkg"
    write(root, "sim/events.py", "import heapq\n")
    write(root, "cli.py", "CHECK_SCENARIOS = []\nCHECK_EXEMPT_SCENARIOS = []\n")
    write(root, "workloads/registry.py", "SCENARIO_FACTORIES = {}\n")
    (tmp_path / "tests").mkdir(exist_ok=True)
    return root


def lint_cli(root: Path, *extra: str) -> int:
    """Invoke the real ``repro lint`` CLI against a fixture tree."""
    tests = root.parent / "tests"
    return main(
        ["lint", "--root", str(root), "--tests", str(tests), "--no-baseline", *extra]
    )


class TestSeededViolationsExitNonzeroPerFamily:
    """Acceptance: one seeded violation per family -> CLI exit 1."""

    def test_clean_fixture_tree_exits_zero(self, fixture_tree):
        assert lint_cli(fixture_tree) == 0

    def test_determinism_violation(self, fixture_tree):
        write(fixture_tree, "sim/clocked.py", "import time\nt0 = time.time()\n")
        assert lint_cli(fixture_tree) == 1

    def test_registry_violation(self, fixture_tree):
        write(fixture_tree, "workloads/registry.py", "SCENARIO_FACTORIES = {'lost': 1}\n")
        assert lint_cli(fixture_tree) == 1

    def test_dispatch_violation(self, fixture_tree):
        write(
            fixture_tree,
            "netsim/grabby.py",
            "def drain(queue):\n    return queue._heap[0]\n",
        )
        assert lint_cli(fixture_tree) == 1

    def test_rules_filter_limits_the_run(self, fixture_tree):
        write(fixture_tree, "sim/clocked.py", "import time\nt0 = time.time()\n")
        assert lint_cli(fixture_tree, "--rules", "dispatch") == 0
        assert lint_cli(fixture_tree, "--rules", "determinism") == 1

    def test_suppression_comment_silences_the_finding(self, fixture_tree):
        write(
            fixture_tree,
            "sim/clocked.py",
            "import time\nt0 = time.time()  # repro-lint: disable=determinism-wall-clock\n",
        )
        assert lint_cli(fixture_tree) == 0

    def test_unparsable_file_is_a_finding(self, fixture_tree):
        write(fixture_tree, "sim/broken.py", "def nope(:\n")
        assert lint_cli(fixture_tree) == 1

    def test_unknown_rule_family_is_a_usage_error(self, fixture_tree, capsys):
        assert (
            main(["lint", "--root", str(fixture_tree), "--no-baseline"]) == 0
        )
        code = main(
            ["lint", "--root", str(fixture_tree), "--no-baseline", "--rules"]
        )
        assert code == 0  # empty --rules falls back to all families
        with pytest.raises(SystemExit):  # argparse rejects unknown choices
            main(["lint", "--root", str(fixture_tree), "--rules", "astrology"])


class TestCommittedTree:
    """Acceptance: the committed tree lints clean through the real CLI."""

    def test_repro_lint_exits_zero_on_the_committed_tree(self):
        assert main(["lint"]) == 0

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(REPO / "tools" / "lint_baseline.json")
        assert baseline.total == 0


class TestBaselineRatchet:
    def seed_violation(self, root: Path) -> None:
        write(root, "sim/clocked.py", "import time\nt0 = time.time()\n")

    def test_update_baseline_then_clean_exit(self, fixture_tree, tmp_path):
        self.seed_violation(fixture_tree)
        baseline = tmp_path / "baseline.json"
        tests = tmp_path / "tests"
        assert (
            main(
                ["lint", "--root", str(fixture_tree), "--tests", str(tests),
                 "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert load_baseline(baseline).total == 1
        # Grandfathered finding: reported but not fatal.
        assert (
            main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
                  "--baseline", str(baseline)])
            == 0
        )

    def test_adding_a_violation_fails_despite_the_baseline(self, fixture_tree, tmp_path):
        self.seed_violation(fixture_tree)
        baseline = tmp_path / "baseline.json"
        tests = tmp_path / "tests"
        main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
              "--baseline", str(baseline), "--update-baseline"])
        write(fixture_tree, "memory/entropic.py", "import os\nkey = os.urandom(8)\n")
        assert (
            main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
                  "--baseline", str(baseline)])
            == 1
        )

    def test_fixing_a_violation_makes_the_stale_entry_fatal(self, fixture_tree, tmp_path, capsys):
        self.seed_violation(fixture_tree)
        baseline = tmp_path / "baseline.json"
        tests = tmp_path / "tests"
        main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
              "--baseline", str(baseline), "--update-baseline"])
        (fixture_tree / "sim" / "clocked.py").unlink()  # the fix
        code = main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
                     "--baseline", str(baseline)])
        assert code == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_update_baseline_shrinks_after_a_fix(self, fixture_tree, tmp_path):
        self.seed_violation(fixture_tree)
        baseline = tmp_path / "baseline.json"
        tests = tmp_path / "tests"
        main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
              "--baseline", str(baseline), "--update-baseline"])
        (fixture_tree / "sim" / "clocked.py").unlink()
        main(["lint", "--root", str(fixture_tree), "--tests", str(tests),
              "--baseline", str(baseline), "--update-baseline"])
        assert load_baseline(baseline).total == 0
        payload = json.loads(baseline.read_text())
        assert payload["findings"] == {}

    def test_partition_is_a_multiset(self, tmp_path):
        finding = Finding(rule="r-x", path="p.py", line=1, message="m")
        twice = [finding, finding]
        baseline = write_baseline(tmp_path / "baseline.json", twice)
        new, grandfathered, stale = baseline.partition([finding])
        assert not new and len(grandfathered) == 1 and len(stale) == 1


class TestRunnerApi:
    def test_run_lint_defaults_to_the_installed_package(self):
        report = run_lint()
        assert report.exit_code == 0
        assert report.files_scanned > 60

    def test_run_lint_rejects_unknown_families(self):
        with pytest.raises(ValueError, match="unknown rule families"):
            run_lint(families=["astrology"])
