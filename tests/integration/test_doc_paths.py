"""Tripwire for the documents: every repository path they name exists.

README, DESIGN, ALGORITHMS, the CI workflow, the verify skill, the
docstrings of ``src/``, the examples and the top-level benchmark scripts name
source files, benchmark scripts, committed ``BENCH_*.json`` baselines and the
root documents (``DESIGN.md``) by path.  Deleting or renaming one of those
leaves the prose pointing at nothing and fails no other test.  This one fails
instead.  (``benchmarks/e2e/`` is the benchmark's own tree and is not scanned.)
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
    str(path.relative_to(ROOT))
    for path in sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "examples").glob("*.py"))
    + sorted((ROOT / "benchmarks").glob("*.py"))
)

#: A ``.py`` / ``.json`` / ``.md`` path, possibly a glob (``bench_*.py``).
_PATH = re.compile(r"(?<![\w./*-])[\w./*-]*[\w*]\.(?:py|json|md)\b")
#: A root document named bare (``DESIGN.md``, ``CHANGES.md``).
_ROOT_DOCUMENT = re.compile(r"[A-Z][A-Z0-9_]*\.md")
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
            if token.startswith("BENCH_") or _ROOT_DOCUMENT.fullmatch(token):
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
        "EXPERIMENTS.md",
        "docs/EXPERIMENTS.md",
        "benchmarks/bench_table1_*.py",
        "bench_theorem2_counts.py",
        "benchmarks/bench_ablation_*.py",
    ]
    prose = " and ".join(f"`{name}` ({name}: see {name})." for name in spellings)
    assert missing_paths(prose) == sorted(spellings)
    kept = (
        "`tests/paper/test_*.py`, `BENCH_*.json`, `bench_parallel.py`, `sim/network.py`, "
        "DESIGN.md, `docs/ALGORITHMS.md`, notes.md"
    )
    assert missing_paths(kept) == []
