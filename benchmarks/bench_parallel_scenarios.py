"""Work-stealing sharded scenario throughput: 1 / 2 / 4 workers + floors.

Sweeps the parallel executor over worker counts, certifies that every
sharded run's merged report is byte-identical to the serial baseline, and
writes ``benchmarks/results/BENCH_parallel_scenarios.json`` (scenarios/s,
speedup vs serial, per-worker steal counts and cache hit rates, scheduling
efficiency) which the CI ``parallel-scenarios``
job uploads.

One floor is asserted here (and re-checked by the CI gate step from the
JSON artifact): **scheduling efficiency >= 0.8 at 4 workers** on the
dedicated efficiency run -- busy worker-seconds over available
worker-seconds, the hardware-independent measure of straggler/idle loss
that work stealing exists to fix (raw speedup stays informational: it is
bounded by the host's core count, which the payload records).
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import (
    PARALLEL_RESULTS_NAME,
    SCHEDULING_EFFICIENCY_FLOOR,
    format_parallel_report,
    measure_parallel_scenarios,
    write_parallel_report,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Fixed workload so runs are comparable across commits.
SEED = 42
COUNT = 40
ATTACK_RATIO = 0.25
WORKER_COUNTS = (1, 2, 4)


def test_parallel_scenario_throughput(benchmark, report_writer):
    """Time the work-stealing executor sweep and certify serial parity."""
    payload = benchmark.pedantic(
        lambda: measure_parallel_scenarios(
            seed=SEED, count=COUNT, attack_ratio=ATTACK_RATIO, worker_counts=WORKER_COUNTS
        ),
        rounds=1,
        iterations=1,
    )
    assert payload["serial"]["ok"], "the serial baseline must satisfy the invariant"
    assert [row["workers"] for row in payload["workers"]] == list(WORKER_COUNTS)
    for row in payload["workers"]:
        assert row["ok"], f"sharded run at {row['workers']} workers found failures"
        assert row["parity_with_serial"], (
            f"merged report at {row['workers']} workers diverged from the serial run"
        )
        assert len(row["per_worker_cache_hit_rate"]) == min(row["workers"], COUNT)
        assert len(row["per_worker_chunks_stolen"]) == row["effective_workers"]
        assert sum(row["per_worker_scenarios"]) == COUNT
        assert row["scenarios_per_second"] > 0
        if row["effective_workers"] > 1:
            # Every scheduled chunk was pulled by someone.
            assert sum(row["per_worker_chunks_stolen"]) == -(-COUNT // row["steal_chunk"])

    eff = payload["efficiency"]
    assert eff["ok"], "the efficiency run found failures"
    assert eff["scheduling_efficiency"] >= SCHEDULING_EFFICIENCY_FLOOR, (
        f"scheduling efficiency {eff['scheduling_efficiency']:.2f} at "
        f"{eff['workers']} workers fell below the {SCHEDULING_EFFICIENCY_FLOOR} floor"
    )

    path = write_parallel_report(payload, RESULTS_DIR / PARALLEL_RESULTS_NAME)
    report_writer(
        "parallel_scenarios", format_parallel_report(payload) + f"\n[json artifact: {path}]"
    )
