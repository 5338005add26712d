"""``python -m benchmarks.e2e run|compare|report`` (from the repository root)."""

import os
import sys

if __name__ == "__main__":
    # PYTHONPATH=src is the documented way; fall back to the checkout's src/.
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
    if source not in sys.path:
        sys.path.append(source)
    from benchmarks.e2e.cli import main

    sys.exit(main())
