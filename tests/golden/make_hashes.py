"""Rewrite entries of tests/golden/hashes.json, and the artifacts under
tests/golden/artifacts/, from the current code.

    PYTHONPATH=src python tests/golden/make_hashes.py [case ...]

Runs each named case of tests/test_golden.py (every case when none is named)
at GNLS_THREADS=1 and 2, refuses to write when the two thread counts
disagree, and leaves the entries of the other cases as they are.  Prints
each artifact whose hash moved, as `case/artifact: old[:12] → new[:12]`
("-" for an artifact that is new or gone) with the largest change of a
number in it relative to its column's scale, then the count of unmoved
ones, and records this machine's environment in hashes.json.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_golden import (  # noqa: E402
    ARTIFACTS,
    CONFIGS,
    HASHES,
    environment,
    moved_artifacts,
    run_subcommand,
)


def main(names) -> int:
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        print(f"unknown cases: {', '.join(unknown)}", file=sys.stderr)
        return 1
    old = {}
    if os.path.exists(HASHES):
        with open(HASHES) as fh:
            old = json.load(fh)
    hashes = dict(old) if names else {}
    unmoved = 0
    for name in sorted(names or CONFIGS):
        with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
            results = []
            for threads, tmp in (("1", one), ("2", two)):
                os.environ["GNLS_THREADS"] = threads
                results.append(run_subcommand(name, tmp))
            if results[0] != results[1]:
                print(f"{name}: artifacts differ between 1 and 2 threads", file=sys.stderr)
                return 1
            hashes[name] = results[0]
            before = old.get(name, {"artifacts": {}, "exit_code": None})
            for line in moved_artifacts(name, before, results[0], os.path.join(one, "out")):
                print(line)
            unmoved += sum(
                before["artifacts"].get(artifact) == digest
                for artifact, digest in results[0]["artifacts"].items()
            )
            shutil.rmtree(os.path.join(ARTIFACTS, name), ignore_errors=True)
            shutil.copytree(os.path.join(one, "out"), os.path.join(ARTIFACTS, name))
    print(f"{unmoved} artifacts unmoved")
    hashes["environment"] = environment()
    with open(HASHES, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
