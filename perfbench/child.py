"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Set-up is timed from the first statement of this script to the resolved
config: importing gnls (numpy, scipy) and parsing the config.  The run is
timed from the experiment call until it returns with its artifacts on disk;
wall time with perf_counter, CPU time of all threads with process_time.
Peak RSS is read right after the run, before the correctness gate.  With
--trace the gnls layers are wrapped after set-up, and the per-layer metrics
are computed from the spans once the run ends; the spans are written next to
the output directory.  Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402

THREAD_VARS = ("GNLS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import gnls

    if not os.path.abspath(gnls.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gnls imported from {gnls.__file__}, not from {SRC}")
    resolved = workloads.resolve(args.workload, args.seed, args.out)
    record = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        record["versions"] = _versions()
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    result = workloads.run(args.workload, resolved)
    record["run_s"] = time.perf_counter() - w0
    record["cpu_s"] = time.process_time() - c0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from spans import layer_metrics

        tracer.active = False
        record["layers"] = layer_metrics(
            tracer.spans, workloads.THREADS[args.workload]
        )
        tracer.write(args.out.rstrip(os.sep) + ".spans.tsv")

    record["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(args.out)
        for f in files
    )
    record["exit_code"] = getattr(result, "exit_code", 0)
    record["failures"] = workloads.check(args.workload, resolved, result)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
