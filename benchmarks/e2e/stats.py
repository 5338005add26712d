"""Order statistics and the machine envelope every result carries."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Dict, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's per-repetition values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    median = summary["median"]
    return abs(summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def git_sha(root: str) -> str:
    # The ceiling keeps git from walking out of a checkout that is no repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def envelope(root: str) -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_average_1m": os.getloadavg()[0],
    }


def load_warning(env: Dict[str, object]) -> str:
    """A one-line warning when the box was busier than it has cores, else ''."""
    load, nproc = env.get("load_average_1m"), env.get("nproc")
    if isinstance(load, (int, float)) and isinstance(nproc, int) and load > nproc:
        return (
            f"warning: 1-min load average {load:.2f} exceeds nproc={nproc}; "
            "wall-clock numbers from this run are not comparable"
        )
    return ""
