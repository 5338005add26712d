"""Tripwire for the documents: every repository path they name exists.

README, DESIGN, ALGORITHMS, the CI workflow, the verify skill and the
docstrings of ``src/`` name source files, benchmark scripts and committed
``BENCH_*.json`` baselines by path.  Deleting or renaming one of those leaves
the prose pointing at nothing and fails no other test.  This one fails
instead.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "docs/ALGORITHMS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
) + tuple(
    str(path.relative_to(ROOT)) for path in sorted((ROOT / "src").rglob("*.py"))
)

#: A ``.py`` / ``.json`` path, possibly a glob (``bench_table1_*.py``).
_PATH = re.compile(r"(?<![\w./*-])[\w./*-]*[\w*]\.(?:py|json)\b")
#: Directories a named path may be rooted at: the repository's own, and the
#: packages of ``src/repro`` (prose says ``sim/network.py``).
_ROOTS = {"src", "tests", "benchmarks", "examples", "docs"}
_PACKAGES = {path.name for path in (ROOT / "src" / "repro").iterdir() if path.is_dir()}


def missing_paths(text: str) -> list:
    """The repository paths ``text`` names that match no file."""
    missing = []
    for token in sorted(set(_PATH.findall(text))):
        head = token.split("/")[0]
        if "/" not in token:
            # A bare name is checked only when it can be nothing but a
            # benchmark script or a committed baseline.
            if token.startswith("BENCH_"):
                base = ROOT
            elif token.startswith(("bench_", "check_bench")):
                base = ROOT / "benchmarks"
            else:
                continue
        elif head in _ROOTS:
            base = ROOT
        elif head in _PACKAGES:
            base = ROOT / "src" / "repro"
        else:
            continue  # a run's output directory, an example invocation
        if not any(base.glob(token)):
            missing.append(token)
    return missing


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_path_a_document_names_exists(document):
    assert missing_paths((ROOT / document).read_text()) == []


def test_a_deleted_file_named_again_is_caught():
    """The extractor sees every spelling the documents used for the legacy
    bench estate — so naming one of those files again fails the test above."""
    spellings = [
        "benchmarks/bench_event_loop.py",
        "benchmarks/bench_store_throughput.py",
        "bench_store_throughput.py",
        "benchmarks/bench_checker.py",
        "benchmarks/bench_memory.py",
        "benchmarks/bench_consensus.py",
        "benchmarks/check_bench_regression.py",
        "src/repro/transport/bench.py",
        "transport/bench.py",
        "BENCH_event_loop.json",
        "BENCH_store_throughput.json",
        "BENCH_openloop.json",
        "BENCH_checker.json",
        "BENCH_memory.json",
        "BENCH_consensus.json",
        "BENCH_live_throughput.json",
        "BENCH_chaos.json",
    ]
    prose = " and ".join(f"`{name}` ({name}: see {name})." for name in spellings)
    assert missing_paths(prose) == sorted(spellings)
    kept = "`benchmarks/bench_table1_*.py`, `BENCH_*.json`, `bench_parallel.py`, `sim/network.py`"
    assert missing_paths(kept) == []
