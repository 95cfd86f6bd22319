"""Benchmark of latchain: certify a seeded workload corpus, print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from its
src/ directory; without it the run fails before printing a result. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-module metrics of the traced run with --trace 1. The lines above it
give the run record and each metric by name and unit. Rationale and
workload descriptions: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_library() -> None:
    sys.path.insert(0, SRC)
    try:
        import latchain
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import latchain from {SRC}: {exc}")
    if not os.path.abspath(latchain.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: latchain was imported from {latchain.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        # what a fresh process does before its first instance
        workloads.WORKLOADS[args.workload].build(args.seed, False, HERE)
        print("ready", flush=True)
        from calibration import references

        print(" ".join(map(repr, references(9))))
        return 0

    import harness

    outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record, result = outcome["record"], outcome["result"]
    samples = ("instance_times_s", "instance_raw_s")  # in the run file, too long for a line
    print("run-record " + json.dumps({k: v for k, v in record.items() if k not in samples}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not args.trace:
        print(
            f"inst_tail_ms is p{record['tail_percentile']} of {record['instance_samples']} instance times"
            f" ({record['instances_beyond_tail']} beyond); wall_s is the median of {record['timed_passes']} passes"
        )
    print(f"failed_ratio {record['failed_ratio']!r} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
