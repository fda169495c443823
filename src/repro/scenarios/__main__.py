"""CLI for the differential scenario engine.

Examples::

    # the acceptance run: 100 seeded scenarios across the full matrix
    python -m repro.scenarios --seed 42 --count 100 --matrix escudo,sop,none

    # the same range sharded over 4 worker processes (identical merged report)
    python -m repro.scenarios --seed 42 --count 200 --workers 4

    # replay one failing scenario by its token and dump its spec
    python -m repro.scenarios --replay 42:17 --spec

Failing specs are pinned as JSON entries into the regression corpus
(``tests/scenarios/corpus/`` by default; ``--corpus DIR`` overrides,
``--no-corpus`` disables) which the test suite auto-replays.

Exit status is non-zero when any scenario violates its invariant.  Every
*suite* run also writes the throughput artifact (``BENCH_scenarios.json``)
unless ``--bench-out ''`` disables it; ``--replay`` runs a single scenario
and writes no artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .generator import ScenarioGenerator
from .oracle import DifferentialOracle
from .parallel import run_suite_parallel
from .runner import ScenarioRunner

DEFAULT_BENCH_OUT = "benchmarks/results/BENCH_scenarios.json"


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 (auto) or positive, got {value}")
    return value


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run randomized multi-user scenarios under a policy matrix "
        "and check the protected-vs-unprotected differential.",
    )
    parser.add_argument("--seed", default="42", help="suite seed (default: 42)")
    parser.add_argument("--count", type=int, default=100, help="number of scenarios (default: 100)")
    parser.add_argument(
        "--matrix",
        default="escudo,sop,none",
        help="comma-separated protection models (default: escudo,sop,none)",
    )
    parser.add_argument(
        "--attack-ratio",
        type=float,
        default=0.25,
        help="seeded probability a scenario embeds an attack (default: 0.25)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the run across N worker processes (default: 1; the merged "
        "report is byte-identical to the serial run of the same seed range)",
    )
    parser.add_argument(
        "--steal-chunk",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="scenario indices handed out per work-stealing queue pull "
        "(default: 0 = auto, roughly four pulls per worker)",
    )
    parser.add_argument(
        "--corpus",
        default="",
        metavar="DIR",
        help="where failing specs are pinned as regression entries "
        "(default: tests/scenarios/corpus, or $REPRO_CORPUS_DIR)",
    )
    parser.add_argument(
        "--no-corpus",
        action="store_true",
        help="do not pin failing specs into the regression corpus",
    )
    parser.add_argument(
        "--replay",
        default="",
        metavar="SEED:INDEX",
        help="re-run a single scenario from its replay token instead of a suite",
    )
    parser.add_argument("--spec", action="store_true", help="with --replay: print the scenario spec JSON")
    parser.add_argument(
        "--cold",
        action="store_true",
        help="disable the per-worker compile caches (templates, script ASTs, "
        "warm decision cache); every scenario then cold-starts, which is the "
        "benchmark baseline",
    )
    parser.add_argument(
        "--backend",
        choices=("dict", "sqlite"),
        default="dict",
        help="application storage backend (default: dict; sqlite runs the "
        "same matrix over the SQL persistence tier -- the report must be "
        "byte-identical either way)",
    )
    parser.add_argument(
        "--faults",
        type=float,
        default=0.0,
        metavar="RATE",
        help="arm the deterministic fault-injection plane at this per-site "
        "rate (network/storage/xhr; default: 0.0 = no plane)",
    )
    parser.add_argument(
        "--fault-seed",
        default="0",
        metavar="SEED",
        help="seed of the fault plane's deterministic schedule (default: 0)",
    )
    parser.add_argument(
        "--no-fault-retries",
        action="store_true",
        help="disable the resilience layer (retries/backoff); injected faults "
        "then surface as degraded runs instead of being healed",
    )
    parser.add_argument(
        "--crash-worker",
        action="append",
        default=[],
        metavar="W:N",
        help="crash worker W at its N-th stolen chunk (1-based; repeatable); "
        "the supervisor requeues the chunk and respawns a replacement -- the "
        "merged report stays byte-identical to the serial run",
    )
    parser.add_argument(
        "--bench-out",
        default=DEFAULT_BENCH_OUT,
        help="where suite runs write the throughput JSON "
        f"(default: {DEFAULT_BENCH_OUT}; '' disables; unused with --replay)",
    )
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")
    return parser.parse_args(argv)


def _replay_one(args: argparse.Namespace) -> int:
    from .generator import parse_replay_token

    seed_text, _, _ = parse_replay_token(args.replay)
    generator = ScenarioGenerator(seed=seed_text, attack_ratio=args.attack_ratio)
    scenario = generator.replay(args.replay)
    # With --spec, stdout carries *only* the spec JSON (so it can be
    # redirected straight into a corpus pin); the verdict goes to stderr.
    report = (lambda *a, **kw: print(*a, file=sys.stderr, **kw)) if args.spec else print
    if args.spec:
        print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
    runner = ScenarioRunner(
        models=args.matrix,
        compile_caches=not args.cold,
        storage=args.backend,
    )
    runs = runner.run(scenario)
    verdict = DifferentialOracle().classify(scenario, runs)
    status = "ok" if verdict.ok else "FAIL"
    report(f"[{status}] {scenario.name} ({scenario.kind}): {verdict.reason}")
    for model, run in runs.items():
        report(
            f"  {model:>6}: digest {run.digest[:12]} | {run.mediations} mediations "
            f"({run.denied} denied) | {run.pages_loaded} pages"
        )
    return 0 if verdict.ok else 1


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.replay:
        return _replay_one(args)

    faults = None
    if args.faults > 0.0 or args.crash_worker:
        from repro.faults.plan import FaultConfig

        seed_text = args.fault_seed
        faults = FaultConfig.uniform(
            seed=int(seed_text) if seed_text.lstrip("-").isdigit() else seed_text,
            rate=args.faults,
            retries=not args.no_fault_retries,
        )
    crash_schedule: dict[int, int] | None = None
    if args.crash_worker:
        crash_schedule = {}
        for spec in args.crash_worker:
            worker_text, _, ordinal_text = spec.partition(":")
            try:
                crash_schedule[int(worker_text)] = int(ordinal_text)
            except ValueError:
                print(f"bad --crash-worker spec {spec!r} (expected W:N)", file=sys.stderr)
                return 2

    # Suite runs always go through the sharded executor: with --workers 1 the
    # single shard runs in-process (no pool), so the serial and parallel code
    # paths -- and their merged reports -- are one and the same.
    result = run_suite_parallel(
        seed=args.seed,
        count=args.count,
        models=args.matrix,
        attack_ratio=args.attack_ratio,
        workers=args.workers,
        corpus_dir=args.corpus or None,
        persist_failures=not args.no_corpus,
        compile_caches=not args.cold,
        storage=args.backend,
        steal_chunk=args.steal_chunk or None,
        faults=faults,
        crash_schedule=crash_schedule,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())

    if args.bench_out:
        # One producer for the artifact: the bench layer's writer, so the CLI
        # and benchmarks/bench_scenarios.py emit an identical schema.
        from repro.bench.scenario_bench import write_scenario_report

        path = write_scenario_report(result, Path(args.bench_out))
        # With --json, stdout must stay a single parseable JSON document.
        print(
            f"[throughput report written to {path}]",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
