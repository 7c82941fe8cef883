"""Runner-level replint tests: suppressions, the JSON schema, the CLI,
idempotence, and the clean-tree acceptance gate (ISSUE 9)."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source, render_human, render_json
from repro.lint.__main__ import main
from repro.lint.runner import JSON_VERSION, module_rel_path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DIRTY = """
def f(fn, b):
    fn.blocks.append(b)
"""

SUPPRESSED = """
def f(fn, b):
    fn.blocks.append(b)  # replint: disable=R001 -- justified here
"""


# -- suppressions ----------------------------------------------------------

def test_disable_comment_suppresses_the_finding():
    kept, suppressed = lint_source(textwrap.dedent(SUPPRESSED),
                                   "passes/example.py")
    assert kept == []
    assert [f.rule for f in suppressed] == ["R001"]


def test_disable_of_a_different_rule_does_not_suppress():
    source = ("def f(fn, b):\n"
              "    fn.blocks.append(b)  # replint: disable=R002\n")
    kept, suppressed = lint_source(source, "passes/example.py")
    assert [f.rule for f in kept] == ["R001"]
    assert suppressed == []


def test_disable_accepts_code_lists():
    source = ("def f(loop):\n"
              "    loop.blocks.append(  # replint: disable=R001,R002\n"
              "        None)\n")
    kept, suppressed = lint_source(source, "passes/example.py")
    assert kept == []
    assert len(suppressed) == 1


def test_hash_inside_strings_is_not_a_directive():
    source = ("def f(fn, b):\n"
              "    fn.blocks.append('# replint: disable=R001')\n")
    kept, _ = lint_source(source, "passes/example.py")
    assert [f.rule for f in kept] == ["R001"]


# -- module_rel_path -------------------------------------------------------

def test_module_rel_path_strips_to_the_package_root():
    assert module_rel_path("src/repro/ir/arith.py") == "ir/arith.py"
    assert module_rel_path("/a/b/repro/passes/licm.py") == \
        "passes/licm.py"
    assert module_rel_path("scripts/tool.py") == "tool.py"


# -- the JSON schema -------------------------------------------------------

def test_json_report_schema(tmp_path):
    target = tmp_path / "repro" / "passes" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(DIRTY))
    report = lint_paths([str(tmp_path)])
    payload = json.loads(render_json(report))
    assert payload["version"] == JSON_VERSION
    assert set(payload) == {"version", "files", "findings",
                            "suppressed", "counts", "errors"}
    assert payload["files"] == 1
    assert payload["counts"] == {"R001": 1}
    (finding,) = payload["findings"]
    assert set(finding) >= {"file", "line", "col", "rule", "message"}
    assert finding["rule"] == "R001"
    assert finding["file"] == str(target)
    assert finding["line"] == 3


def test_unparsable_files_are_reported_not_crashed(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    report = lint_paths([str(tmp_path)])
    assert report.exit_code == 1
    assert report.findings == []
    assert len(report.errors) == 1
    assert "syntax error" in report.errors[0][1]


# -- the CLI ---------------------------------------------------------------

def test_cli_exits_nonzero_on_findings(tmp_path, capsys):
    target = tmp_path / "repro" / "passes" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(DIRTY))
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "R001" in out and "1 finding(s)" in out


def test_cli_exits_zero_on_a_clean_tree(tmp_path, capsys):
    target = tmp_path / "repro" / "passes" / "good.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(b, i):\n    b.append(i)\n")
    assert main([str(tmp_path)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_json_format_and_rule_subset(tmp_path, capsys):
    target = tmp_path / "repro" / "passes" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(DIRTY))
    assert main([str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"R001": 1}
    # Restricting to an unrelated rule turns the same tree clean.
    assert main([str(tmp_path), "--rules", "R003"]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("R001", "R002", "R003", "R004", "R005"):
        assert code in out


def test_cli_rejects_unknown_rules(tmp_path):
    with pytest.raises(SystemExit):
        main([str(tmp_path), "--rules", "R999"])


# -- idempotence and the clean-tree gate -----------------------------------

def test_lint_is_idempotent_over_the_tree():
    first = lint_paths([str(REPO_SRC)])
    second = lint_paths([str(REPO_SRC)])
    assert render_json(first) == render_json(second)
    assert render_human(first) == render_human(second)


def test_repository_tree_is_clean():
    """The acceptance gate: zero findings on src/, every suppression
    justified in place, nonzero exit reserved for regressions."""
    report = lint_paths([str(REPO_SRC)])
    assert report.errors == []
    assert [f"{f.path}:{f.line} {f.rule}" for f in report.findings] == []
    assert report.exit_code == 0
    # The justified disables are visible, not silently dropped.
    assert {f.rule for f in report.suppressed} <= {"R001", "R003"}


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """Line numbers of ``os.environ``/``os.getenv`` uses and of
    ``from os import environ``-style imports in one parsed module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                node.attr in _ENVIRONMENT_READERS and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in _ENVIRONMENT_READERS
                    for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_reads_no_environment_variables():
    """Behaviour is chosen by arguments, never by a process-wide
    environment switch: no module under src/repro reads the
    environment."""
    sample = textwrap.dedent("""
        import os
        from os import getenv
        a = os.environ.get("A")
        b = os.getenv("B")
        c = os.path.join("x", "y")
    """)
    assert _environment_reads(ast.parse(sample)) == [3, 4, 5]
    reads = []
    for path in sorted((REPO_SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads.extend(f"{path.relative_to(REPO_SRC)}:{line}"
                     for line in _environment_reads(tree))
    assert reads == []
