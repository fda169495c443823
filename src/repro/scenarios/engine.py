"""The scenario engine facade: generate → run matrix → classify → aggregate.

:func:`run_suite` is the one call behind the CLI (``python -m
repro.scenarios``), the fuzz tests and the throughput benchmark: it streams
``count`` seeded scenarios through the :class:`ScenarioRunner` under the
requested policy matrix, feeds every result to the
:class:`DifferentialOracle`, and aggregates wall-clock + mediation
statistics into a JSON-serialisable :class:`SuiteResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.faults.plan import merge_fault_stats

from .generator import ScenarioGenerator
from .oracle import DifferentialOracle, Verdict
from .runner import ScenarioRunner


@dataclass
class SuiteResult:
    """Outcome and statistics of one scenario-suite run."""

    seed: int | str
    count: int
    models: tuple[str, ...]
    #: The generator's attack ratio -- part of a replay token's context.
    attack_ratio: float = 0.0
    verdicts: list[Verdict] = field(default_factory=list)
    #: The scenario indices actually executed, in execution order -- always
    #: parallel to ``verdicts``.  The sharded executor pairs verdicts with
    #: their global indices through this field (and fails loudly on a length
    #: mismatch) instead of silently zipping against the requested slice.
    indices: list[int] = field(default_factory=list)
    #: Full specs of failing scenarios (``{"index", "spec", "reason",
    #: "replay"}``) -- the regression corpus pins these.
    failure_specs: list[dict] = field(default_factory=list)
    duration_s: float = 0.0
    mediations: int = 0
    denied: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    pages_loaded: int = 0
    #: Event-loop macrotasks executed across the whole suite.  Part of the
    #: parity report: shards must reproduce the exact task schedule.
    tasks_run: int = 0
    #: Aggregated fault-plane accounting (``{}`` without a plane or when no
    #: fault fired).  Reporting only: deliberately excluded from
    #: :meth:`parity_dict` so fault telemetry can never perturb the parity
    #: oracles.
    faults: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[Verdict]:
        """Every verdict the oracle rejected."""
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        """True when every scenario satisfied its invariant."""
        return not self.failures

    @property
    def benign_count(self) -> int:
        return sum(1 for v in self.verdicts if v.kind == "benign")

    @property
    def attack_count(self) -> int:
        return sum(1 for v in self.verdicts if v.kind == "attack")

    @property
    def scenarios_per_second(self) -> float:
        """End-to-end scenario throughput (each scenario runs the full matrix)."""
        return len(self.verdicts) / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mediations_per_second(self) -> float:
        """Reference-monitor throughput summed over every page of every run."""
        return self.mediations / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Decision-cache hit rate aggregated over the whole suite."""
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def parity_dict(self) -> dict:
        """The timing-free canonical report.

        This is the merge oracle for sharded execution: a parallel run of a
        seed range must produce a ``parity_dict`` equal -- byte-identical
        once JSON-encoded -- to the serial run of the same range.  Wall-clock
        fields (``duration_s`` and the derived throughputs) are excluded;
        everything semantic, including every verdict and the aggregate
        mediation counters, is in.  Decision-cache hit counters are
        *performance* telemetry, not semantics: with the per-worker warm
        compile caches they legitimately depend on how scenarios are sharded
        (what an earlier scenario warmed), so they live in :meth:`as_dict`
        only -- verdicts, digests, mediation and denial counts must still
        match byte for byte.
        """
        return {
            "seed": self.seed,
            "count": self.count,
            "models": list(self.models),
            "attack_ratio": self.attack_ratio,
            "ok": self.ok,
            "benign": self.benign_count,
            "attacks": self.attack_count,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "mediations": self.mediations,
            "denied": self.denied,
            "pages_loaded": self.pages_loaded,
            "tasks_run": self.tasks_run,
        }

    def as_dict(self) -> dict:
        """The ``BENCH_scenarios.json`` payload."""
        return {
            "seed": self.seed,
            "count": self.count,
            "models": list(self.models),
            "attack_ratio": self.attack_ratio,
            "ok": self.ok,
            "benign": self.benign_count,
            "attacks": self.attack_count,
            "failures": [v.as_dict() for v in self.failures],
            "duration_s": self.duration_s,
            "scenarios_per_second": self.scenarios_per_second,
            "mediations": self.mediations,
            "mediations_per_second": self.mediations_per_second,
            "denied": self.denied,
            "cache_hit_rate": self.cache_hit_rate,
            "pages_loaded": self.pages_loaded,
            "tasks_run": self.tasks_run,
            "faults": self.faults,
        }

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"scenario suite: seed={self.seed} count={self.count} "
            f"matrix={','.join(self.models)}",
            f"  benign: {self.benign_count}  attacks: {self.attack_count}  "
            f"failures: {len(self.failures)}",
            f"  {self.scenarios_per_second:,.1f} scenarios/s | "
            f"{self.mediations_per_second:,.0f} mediations/s | "
            f"cache hit rate {self.cache_hit_rate * 100.0:.1f}% | "
            f"{self.pages_loaded} pages in {self.duration_s:.2f}s",
        ]
        for verdict in self.failures:
            lines.append(f"  FAIL [{verdict.replay or verdict.scenario}] {verdict.reason}")
            if verdict.replay:
                # Replay tokens are only meaningful under the same generator
                # configuration *and* policy matrix, so spell the full
                # command out.
                lines.append(
                    f"    reproduce: python -m repro.scenarios --replay {verdict.replay} "
                    f"--attack-ratio {self.attack_ratio} "
                    f"--matrix {','.join(self.models)} --spec"
                )
        if self.ok:
            lines.append("  all scenarios satisfied the differential invariant")
        return "\n".join(lines)


def run_suite(
    *,
    seed: int | str = 42,
    count: int = 100,
    models=("escudo", "sop", "none"),
    attack_ratio: float = 0.25,
    generator: ScenarioGenerator | None = None,
    runner: ScenarioRunner | None = None,
    oracle: DifferentialOracle | None = None,
    indices=None,
    compile_caches: bool = True,
    storage: str = "dict",
    faults=None,
) -> SuiteResult:
    """Generate and differentially check ``count`` scenarios.

    ``indices`` overrides the default ``range(count)`` with an explicit list
    of scenario indices -- the sharded executor runs each worker's slice
    through this very loop, so the serial and parallel engines share one
    generate -> run -> classify -> aggregate code path.  ``compile_caches``
    controls the default runner's warm compile-cache stack and
    ``storage`` the application persistence backend (``"dict"`` or
    ``"sqlite"``); with ``faults`` a
    :class:`~repro.faults.plan.FaultConfig` (or its dict form) arms the
    fault-injection plane on every run.  All three are ignored when an
    explicit ``runner`` is passed (the runner carries its own).
    """
    generator = generator or ScenarioGenerator(seed=seed, attack_ratio=attack_ratio)
    runner = runner or ScenarioRunner(
        models=models,
        compile_caches=compile_caches,
        storage=storage,
        faults=faults,
    )
    oracle = oracle or DifferentialOracle()
    model_names = tuple(spec.name for spec in runner.specs)
    index_list = list(range(count)) if indices is None else list(indices)
    result = SuiteResult(
        seed=generator.seed,
        count=len(index_list),
        models=model_names,
        attack_ratio=generator.attack_ratio,
    )

    start = time.perf_counter()
    for index in index_list:
        scenario = generator.scenario(index)
        runs = runner.run(scenario)
        verdict = oracle.classify(scenario, runs)
        result.indices.append(index)
        result.verdicts.append(verdict)
        if not verdict.ok:
            failure = {
                "index": index,
                "spec": scenario.to_dict(),
                "reason": verdict.reason,
                "replay": verdict.replay,
            }
            if runner.faults is not None:
                # Pin the fault schedule with the spec so the corpus replay
                # reproduces the failure under the same faults.
                failure["faults"] = runner.faults.to_dict()
            result.failure_specs.append(failure)
        for run in runs.values():
            result.mediations += run.mediations
            result.denied += run.denied
            result.cache_hits += run.cache_hits
            result.cache_lookups += run.cache_lookups
            result.pages_loaded += run.pages_loaded
            result.tasks_run += run.tasks_run
            if run.faults:
                merge_fault_stats(result.faults, run.faults)
    result.duration_s = time.perf_counter() - start
    return result
