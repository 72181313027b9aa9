"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload knn-acaw --seed 1 --seconds 40 --trace 0

Workloads: ``knn-acaw`` and ``serve-churn`` (the two in ``BENCHMARK.json``)
and ``knn-fcfw``; ``perfbench/decisions.json`` records why each exists,
its sizes, and why ``knn-fcfw`` is left out of ``BENCHMARK.json``.  With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it wraps each layer's public functions from the outside and prints every
per-layer metric, writing its spans under ``.perfbench/``.  Every answer
is checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is the checkout's own ``src/repro``; without it
the run exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_DIR = os.path.join(ROOT, ".perfbench")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the program from {source}: {exc}")
    location = os.path.realpath(os.path.dirname(repro.__file__))
    if not location.startswith(os.path.realpath(source) + os.sep):
        raise SystemExit(
            f"error: imported repro from {location}, not from {source}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("knn-fcfw", "knn-acaw", "serve-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()

    from perfbench.metrics import END_TO_END, PER_LAYER, with_units
    from perfbench.workloads import run_churn, run_knn

    trace = bool(args.trace)
    if args.workload == "serve-churn":
        outcome = run_churn(args.seed, args.seconds, trace, spans_dir=SPANS_DIR)
    else:
        outcome = run_knn(args.workload, args.seed, args.seconds, trace,
                          spans_dir=SPANS_DIR)
    if trace:
        metrics = with_units(outcome.per_layer, PER_LAYER)
    else:
        metrics = with_units(outcome.end_to_end, END_TO_END)
    for error in outcome.errors:
        print(f"failed op: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{outcome.query_samples} query samples, "
          f"{outcome.failed}/{outcome.attempted} ops failed "
          f"(failed_fraction {outcome.failed / float(outcome.attempted):.4f}), "
          f"speed factor {outcome.speed_factor:.3f}")
    if not trace:
        print("  raw: " + ", ".join(
            f"{name} {value:.6g}" for name, value in outcome.raw.items()
        ))
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
