"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-warm --seed 42 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric with nothing wrapped;
``--trace 1`` runs fixed-size passes with every layer wrapped and reports
the per-layer counts and self times.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with the sample counts, the
host-speed probe and the environment.  The exit code is 1 when an output
check failed and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    # Import the program from this checkout, and this package as ``perfbench``
    # (not as top-level modules from the script's own directory).
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        entry for entry in sys.path[1:] if os.path.abspath(entry or ".") != ROOT
    ]
    from perfbench import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        result = bench.measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = bench.measure(args.workload, args.seed, args.seconds)
    bench.write_report(result, args.trace)
    print(json.dumps({"report": result.report}, sort_keys=True))
    print(json.dumps(result.result_line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
