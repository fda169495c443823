"""Tests for the repo-invariant linter.

Three layers: the shipped tree must be lint-clean (the CI gate), every rule
must demonstrably fire on a seeded violation fixture (a gate that cannot
fail is not a gate), and the suppression syntax must work.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.repolint import ALL_RULES, lint_paths, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_BAD_WEBAPP = '''\
import pickle
import time


class Widget:
    def register(self):
        self.route("POST", "/widget", self.create_widget)

    def create_widget(self, request):
        return "ok"  # mutates nothing: missing touch_state/storage write


class WidgetCache:
    def lookup(self, key):
        try:
            return pickle.loads(key) or time.time()
        except:
            return None

    def fetch(self, key):
        attempts = 0
        while True:  # unbounded retry loop: no attempt cap
            attempts += 1
            if self.lookup(key) is not None:
                return attempts

    def default_ring(self):
        return Ring(0)  # a fresh ring instead of the interned one
'''


_BAD_WALKER = '''\
def depth(node):
    return 1 + max((depth(child) for child in node.children), default=0)


class Walker:
    def count(self, node):
        return 1 + sum(self.count(child) for child in node.children)

    def query_selector(self, selector):
        return query_selector(self.root, selector)  # the module function: no recursion
'''


@pytest.fixture()
def bad_tree(tmp_path):
    """A source tree seeded with one violation of every rule."""
    webapps = tmp_path / "webapps"
    webapps.mkdir()
    (webapps / "bad.py").write_text(_BAD_WEBAPP, encoding="utf-8")
    browser = tmp_path / "browser"
    browser.mkdir()
    (browser / "walk.py").write_text(_BAD_WALKER, encoding="utf-8")
    return tmp_path


def test_shipped_tree_is_lint_clean():
    assert lint_paths([REPO_SRC]) == []


def test_main_exits_zero_on_clean_tree():
    assert main([str(REPO_SRC)]) == 0


def test_main_exits_two_on_missing_path():
    assert main(["/no/such/path"]) == 2


def test_every_rule_fires_on_seeded_fixture(bad_tree):
    violations = lint_paths([bad_tree])
    fired = {violation.rule for violation in violations}
    assert fired == {rule.rule_id for rule in ALL_RULES}, (
        f"rules without a firing demonstration: "
        f"{ {rule.rule_id for rule in ALL_RULES} - fired }"
    )


def test_main_exits_one_on_violations(bad_tree):
    assert main([str(bad_tree)]) == 1


def test_violations_carry_position_and_render(bad_tree):
    violations = lint_paths([bad_tree])
    for violation in violations:
        assert violation.line > 0
        rendered = str(violation)
        assert violation.rule in rendered
        assert str(violation.line) in rendered


def test_suppression_comment_silences_one_line(bad_tree):
    target = bad_tree / "webapps" / "bad.py"
    source = target.read_text(encoding="utf-8").replace(
        "return pickle.loads(key) or time.time()",
        "return pickle.loads(key) or time.time()  # repolint: allow[determinism]",
    )
    target.write_text(source, encoding="utf-8")
    fired = {violation.rule for violation in lint_paths([bad_tree])}
    assert "determinism" not in fired
    # Only the named rule is silenced; the others still fire on their lines.
    assert {rule.rule_id for rule in ALL_RULES} - fired == {"determinism"}


def test_syntax_error_is_reported_not_raised(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n", encoding="utf-8")
    violations = lint_paths([broken])
    assert len(violations) == 1
    assert violations[0].rule == "syntax"


def test_interned_ring_rule_allows_only_the_rings_module(tmp_path):
    source = "from repro.core import rings\nA = rings.Ring(2)\nB = as_ring(2)\n"
    elsewhere = tmp_path / "browser" / "labeler.py"
    home = tmp_path / "core" / "rings.py"
    for target in (elsewhere, home):
        target.parent.mkdir()
        target.write_text(source, encoding="utf-8")
    violations = lint_paths([tmp_path])
    assert [(Path(v.path).name, v.line, v.rule) for v in violations] == [
        ("labeler.py", 2, "interned-ring")
    ]


def test_iterative_tree_walk_rule_flags_self_calls_in_tree_packages(tmp_path):
    for package in ("dom", "html", "browser", "webapps"):
        target = tmp_path / package / "walk.py"
        target.parent.mkdir()
        target.write_text(_BAD_WALKER, encoding="utf-8")
    violations = lint_paths([tmp_path])
    # The bare-name call in ``depth`` and the ``self.count`` call fire in each
    # tree package; ``query_selector`` calling the module function does not,
    # and ``webapps`` is outside the rule's scope.
    assert sorted((Path(v.path).parent.name, v.line, v.rule) for v in violations) == [
        (package, line, "iterative-tree-walk")
        for package in ("browser", "dom", "html")
        for line in (2, 7)
    ]
