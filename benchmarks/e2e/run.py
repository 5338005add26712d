"""The command ``BENCHMARK.json`` names: one workload, one result line.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  Puts the checkout and its ``src/`` on the
import path (replica processes are spawned and inherit it), then hands over
to :func:`benchmarks.e2e.cli.contract_main`.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.cli import contract_main

    sys.exit(contract_main())
