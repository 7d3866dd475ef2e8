"""Tests for the repro.lint rule catalog.

Each fixture file under ``fixtures/`` contains exactly one seeded
violation; the tests assert the matching rule fires exactly there (and
nowhere else), that suppression comments silence it, and that the real
``src/`` tree is clean.
"""

from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.lint.core import all_rules

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: (fixture file, virtual lint path, expected rule, expected line)
CASES = [
    ("rep001_legacy_random.py", "src/repro/data/fixture.py", "REP001", 9),
    ("rep002_implicit_dtype.py", "src/repro/litho/fixture.py", "REP002", 13),
    ("rep003_missing_vjp.py", "src/repro/tensor/ops_fixture.py", "REP003", 14),
    ("rep004_banned_import.py", "src/repro/core/fixture.py", "REP004", 8),
    ("rep005_unregistered_tensor.py", "src/repro/nn/fixture.py", "REP005", 15),
    ("rep006_unitless_field.py", "src/repro/litho/fixture_config.py", "REP006", 16),
    ("rep101_unlocked_shared_write.py", "src/repro/serve/fixture.py", "REP101", 17),
    ("rep102_fork_under_lock.py", "src/repro/serve/fixture.py", "REP102", 12),
    ("rep102_worker_under_lock.py", "src/repro/serve/fixture.py", "REP102", 12),
    ("rep103_blocking_under_lock.py", "src/repro/serve/fixture.py", "REP103", 18),
    ("rep104_check_then_act.py", "src/repro/serve/fixture.py", "REP104", 17),
    ("rep105_contextvar_leak.py", "src/repro/serve/fixture.py", "REP105", 9),
    ("rep106_undrained_daemon.py", "src/repro/serve/fixture.py", "REP106", 11),
]


def _fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRuleFixtures:
    def test_each_rule_fires_exactly_once_at_the_seeded_line(self):
        for fixture, relpath, rule, line in CASES:
            diagnostics = lint_source(_fixture_source(fixture), relpath)
            assert len(diagnostics) == 1, (
                f"{fixture}: expected exactly one diagnostic, got "
                f"{[d.format() for d in diagnostics]}"
            )
            diag = diagnostics[0]
            assert diag.rule == rule, f"{fixture}: fired {diag.rule}, expected {rule}"
            assert diag.line == line, f"{fixture}: fired at line {diag.line}, expected {line}"

    def test_file_level_suppression_silences_each_fixture(self):
        for fixture, relpath, rule, _ in CASES:
            source = f"# repro-lint: disable-file={rule}\n" + _fixture_source(fixture)
            assert lint_source(source, relpath) == [], f"{fixture}: disable-file ignored"

    def test_line_level_suppression_silences_the_diagnostic(self):
        fixture, relpath, rule, line = CASES[0]
        lines = _fixture_source(fixture).splitlines()
        lines[line - 1] += f"  # repro-lint: disable={rule}"
        assert lint_source("\n".join(lines), relpath) == []

    def test_select_filters_rules(self):
        fixture, relpath, _, _ = CASES[0]
        assert lint_source(_fixture_source(fixture), relpath, select={"REP004"}) == []


class TestPathScoping:
    def test_rep002_only_applies_to_hot_packages(self):
        source = _fixture_source("rep002_implicit_dtype.py")
        assert lint_source(source, "src/repro/experiments/fixture.py") == []

    def test_rep003_only_applies_to_tensor_ops_modules(self):
        source = _fixture_source("rep003_missing_vjp.py")
        assert lint_source(source, "src/repro/tensor/tensor.py") == []

    def test_rep006_only_applies_to_config_modules(self):
        source = _fixture_source("rep006_unitless_field.py")
        assert lint_source(source, "src/repro/experiments/fixture.py") == []


class TestFramework:
    def test_syntax_error_reports_rep000(self):
        diagnostics = lint_source("def broken(:\n", "src/repro/broken.py")
        assert [d.rule for d in diagnostics] == ["REP000"]

    def test_rule_catalog_is_complete(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
                       "REP101", "REP102", "REP103", "REP104", "REP105", "REP106"]
        assert all(rule.description for rule in all_rules())
        assert all(rule.severity in ("error", "warning") for rule in all_rules())

    def test_real_ops_modules_satisfy_the_tape_rule(self):
        for ops in sorted((REPO_ROOT / "src/repro/tensor").glob("ops_*.py")):
            source = ops.read_text(encoding="utf-8")
            diagnostics = lint_source(source, f"src/repro/tensor/{ops.name}")
            assert diagnostics == [], [d.format() for d in diagnostics]


class TestParallelScanning:
    def test_jobs_output_matches_serial_byte_for_byte(self):
        target = [str(FIXTURES)]
        serial = [d.format() for d in lint_paths(target, jobs=1)]
        parallel = [d.format() for d in lint_paths(target, jobs=4)]
        assert serial == parallel
        # every path-independent fixture rule fires on its real path
        assert len(serial) >= 9

    def test_diagnostics_sorted_by_path_line_col_rule(self):
        diagnostics = lint_paths([str(FIXTURES)], jobs=2)
        keys = [(d.path, d.line, d.col, d.rule) for d in diagnostics]
        assert keys == sorted(keys)

    def test_select_respected_across_workers(self):
        diagnostics = lint_paths([str(FIXTURES)], select={"REP101"}, jobs=2)
        assert {d.rule for d in diagnostics} == {"REP101"}


class TestCleanTree:
    def test_src_tree_is_lint_clean(self):
        diagnostics = lint_paths([str(REPO_ROOT / "src")])
        assert diagnostics == [], [d.format() for d in diagnostics]
