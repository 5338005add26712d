"""Tripwire for dead code: every name ``src/`` defines is used outside tests.

A function, method or class that only tests call is code the system carries
for nothing: the tests pin it, so nothing else ever fails when it goes
stale.  This parses ``src/repro/**/*.py``, counts each word once over the
code and prose that ship (``src/``, ``benchmarks/``, ``examples/``,
``README.md``, ``DESIGN.md``, ``docs/``) and requires every non-dunder
definition's name to occur beyond its own definition lines.

It is word-level on purpose, so it errs toward passing: a name that a
docstring or a document mentions counts as used, and so does a name that
another definition shares (``on_message``).  It is the symbol-level sibling
of ``test_doc_paths.py``.
"""

import ast
import pathlib
import re
import textwrap
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[2]
SHIPPED = (
    sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "benchmarks").rglob("*.py"))
    + sorted((ROOT / "examples").rglob("*.py"))
    + sorted((ROOT / "docs").rglob("*.md"))
    + [ROOT / "README.md", ROOT / "DESIGN.md"]
)

#: Names kept without a caller because an open ROADMAP item needs them.
ALLOWED = {
    "reordered_write_count": "ROADMAP 7c: live + reorder acceptance",
    "pending_bytes": "ROADMAP 7d: the writer's high-water mark",
    "buffered_bytes": "ROADMAP 7d: the decoder's high-water mark",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions(source: str) -> Counter:
    """How many times ``source`` defines each non-dunder function, method or class name."""
    found = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                found[node.name] += 1
    return found


def uncalled(defined: Counter, words: Counter) -> list:
    """The defined names that occur nowhere but on their own definition lines."""
    return sorted(name for name, count in defined.items() if words[name] <= count)


def shipped_words() -> Counter:
    words = Counter()
    for path in SHIPPED:
        words.update(_WORD.findall(path.read_text()))
    return words


def src_definitions() -> Counter:
    defined = Counter()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        defined += definitions(path.read_text())
    return defined


def test_every_src_name_has_a_caller_outside_the_tests():
    found = uncalled(src_definitions(), shipped_words())
    assert [name for name in found if name not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_still_uncalled():
    """An allow-list entry whose name gained a caller, or went, is stale."""
    assert set(ALLOWED) <= set(uncalled(src_definitions(), shipped_words()))


def test_a_planted_test_only_definition_is_caught():
    planted = textwrap.dedent(
        """
        class Tally:
            def total(self):
                return self.count()

            def count(self):
                return 0

            def only_tests_call_me(self):
                return 1
        """
    )
    words = Counter(_WORD.findall(planted) + ["Tally", "total"])  # a caller elsewhere
    assert uncalled(definitions(planted), words) == ["only_tests_call_me"]
