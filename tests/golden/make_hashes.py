"""Rewrite tests/golden/hashes.json from the current code.

    PYTHONPATH=src python tests/golden/make_hashes.py

Runs every case of tests/test_golden.py at GNLS_THREADS=1 and 2 and
refuses to write when the two thread counts disagree.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_golden import CONFIGS, HASHES, run_subcommand  # noqa: E402


def main() -> int:
    hashes = {}
    for name in sorted(CONFIGS):
        results = []
        for threads in ("1", "2"):
            os.environ["GNLS_THREADS"] = threads
            with tempfile.TemporaryDirectory() as tmp:
                results.append(run_subcommand(name, tmp))
        if results[0] != results[1]:
            print(f"{name}: artifacts differ between 1 and 2 threads", file=sys.stderr)
            return 1
        hashes[name] = results[0]
    with open(HASHES, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
