"""The benchmark's workloads, measurement loops and output checks.

Three workloads drive the program's public APIs from outside:

* ``suite-warm`` -- the seeded differential suite on one long-lived
  :class:`~repro.scenarios.runner.ScenarioRunner` whose caches were filled
  by warm-up scenarios before timing;
* ``suite-fresh`` -- the same scenarios, each on a fresh runner (the
  one-shot replay shape: every cache tier takes its miss path);
* ``fig4-pages`` -- the eight Figure-4 pages loaded cold through
  :func:`~repro.browser.loader.load_page` under ESCUDO and under SOP, in
  paired rounds whose first variant alternates.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  An *operation* is one scenario (generate,
run under escudo/sop/none, classify) on the suites and one paired round (the
8-page set under both models) on ``fig4-pages``.
"""

from __future__ import annotations

import functools
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro.bench.workloads import all_workloads
from repro.browser import loader
from repro.browser.loader import LoaderOptions
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.oracle import DifferentialOracle
from repro.scenarios.runner import ScenarioRunner

from . import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Host-probe time that defines reference time: a timed metric in ``ref_ms``
#: is measured milliseconds scaled to a host on which the probe loop takes
#: exactly this long.
REF_PROBE_MS = 1.0

MODELS = ("escudo", "sop", "none")
ATTACK_RATIO = 0.25
WORKLOADS = ("suite-warm", "suite-fresh", "fig4-pages")

#: Every end-to-end metric: ``(name, unit)``.  ``escudo_extra_ms`` and
#: ``overhead_pct`` are in the report line only: on the suites ESCUDO adds
#: about 0.05 ms to a 2-5 ms column, while two runs of the same column differ
#: by 0.4-0.5 ms (interquartile range) on a shared 2-CPU host, so a 30-second
#: run cannot resolve the difference.
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("scenarios_per_s", "1/ref_s"),
    ("scenario_ms_p50", "ref_ms"),
    ("scenario_ms_p95", "ref_ms"),
    ("escudo_set_ms", "ref_ms"),
    ("sop_set_ms", "ref_ms"),
    ("ok_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics that are not a single layer's counter or self time.
TRACE_METRICS: tuple[tuple[str, str, str], ...] = (
    ("other.self_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("host.probe_ms", "ms", "lower"),
)


@dataclass(frozen=True)
class Sizes:
    """How much work each fixed-size part of a run does."""

    #: Warm-up scenarios a ``suite-warm`` runner executes before timing.
    warm_scenarios: int = 30
    #: Warm-up scenarios (each on a fresh runner) before ``suite-fresh``.
    fresh_warmup: int = 20
    #: Untimed warm-up rounds before ``fig4-pages``.
    warmup_rounds: int = 3
    #: Times set-up is repeated; ``setup_s`` is their median.
    setup_repeats: int = 7
    #: Scenarios whose parity is re-derived under the other suite shape.
    parity_prefix: int = 40
    #: Operations per traced (and untraced comparison) pass.
    pass_ops: dict = field(
        default_factory=lambda: {"suite-warm": 60, "suite-fresh": 40, "fig4-pages": 10}
    )
    #: Minimum traced and untraced passes each, whatever ``--seconds`` says.
    min_passes: int = 2
    #: Iterations of the host-speed probe loop.
    probe_iterations: int = 8_000


@dataclass
class OpResult:
    """One operation: timings, accounting and its timing-free parity record."""

    total_s: float
    escudo_s: float
    sop_s: float
    attempted: int
    failed: int
    parity: tuple
    problems: list[str]
    #: Whether the ESCUDO set ran before the SOP set.
    escudo_first: bool = True


def _parity_digest(items) -> str:
    """SHA-256 of parity records (deterministic JSON encoding)."""
    payload = json.dumps([list(item) for item in items], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _failed_op(error: BaseException, index) -> OpResult:
    detail = "".join(traceback.format_exception_only(type(error), error)).strip()
    return OpResult(0.0, 0.0, 0.0, 1, 1, (index, "error"), [f"op {index}: {detail}"])


# -- workloads ----------------------------------------------------------------------------------


def _column_order(index: int) -> tuple[str, ...]:
    """Models in run order: escudo before sop on even operations, after on odd.

    Whichever column runs first warms the CPU caches for the other; the
    paired difference is estimated per order and the two averaged.
    """
    return MODELS if index % 2 == 0 else ("sop", "escudo", "none")


class SuiteWorkload:
    """``suite-warm`` (one long-lived runner) or ``suite-fresh`` (one per scenario)."""

    def __init__(self, seed: int, *, fresh: bool, sizes: Sizes) -> None:
        self.seed = seed
        self.fresh = fresh
        self.sizes = sizes
        self.name = "suite-fresh" if fresh else "suite-warm"
        self.generator: ScenarioGenerator | None = None
        self.oracle: DifferentialOracle | None = None
        self.runner: ScenarioRunner | None = None

    @property
    def first_index(self) -> int:
        """First scenario index of the timed loop (both shapes start here)."""
        return self.sizes.warm_scenarios

    def build(self) -> None:
        """Construct generator, oracle and (warm shape) the long-lived runner."""
        self.generator = ScenarioGenerator(seed=self.seed, attack_ratio=ATTACK_RATIO)
        self.oracle = DifferentialOracle()
        if not self.fresh:
            self.runner = ScenarioRunner(models=MODELS)
            self.runner.warm_for(ScenarioGenerator.KNOWN_APPS)

    def setup(self) -> list[str]:
        """Build, then run the untimed warm-up scenarios; returns problems."""
        self.build()
        count = self.sizes.fresh_warmup if self.fresh else self.sizes.warm_scenarios
        problems: list[str] = []
        for index in range(count):
            problems.extend(self.op(index).problems)
        return problems

    def op(self, index: int) -> OpResult:
        """Generate scenario ``index``, run it under every model, classify it."""
        # ``ScenarioRunner.run`` is ``run_under`` for each model of the
        # matrix; calling the columns one by one times each of them.
        perf = time.perf_counter
        try:
            start = perf()
            scenario = self.generator.scenario(index)
            runner = self.runner
            if self.fresh:
                runner = ScenarioRunner(models=MODELS)
                runner.warm_for([scenario.app_key])
            runs = {}
            columns = {}
            for model in _column_order(index):
                column_start = perf()
                runs[model] = runner.run_under(scenario, model)
                columns[model] = perf() - column_start
            verdict = self.oracle.classify(scenario, runs)
            total = perf() - start
        except Exception as error:  # a crash is a failed operation, not a dead run
            return _failed_op(error, index)
        parity = (
            index,
            json.dumps(verdict.as_dict(), sort_keys=True),
            tuple(
                (model, run.digest, run.mediations, run.denied, run.pages_loaded, run.tasks_run)
                for model, run in sorted(runs.items())
            ),
        )
        problems = [] if verdict.ok else [f"scenario {index}: {verdict.reason}"]
        return OpResult(
            total, columns["escudo"], columns["sop"], 1, 0 if verdict.ok else 1, parity, problems,
            escudo_first=index % 2 == 0,
        )

    def cross_check(self, results: list[OpResult]) -> list[str]:
        """Re-run the parity prefix under the other suite shape; it must match.

        Caches change timing only, so a warm and a fresh runner must agree
        on every verdict, state digest and mediation count.
        """
        other = SuiteWorkload(self.seed, fresh=not self.fresh, sizes=self.sizes)
        other.build()
        problems = []
        for result in results[: self.sizes.parity_prefix]:
            index = result.parity[0]
            again = other.op(index)
            if again.parity != result.parity:
                problems.append(
                    f"scenario {index}: {self.name} and {other.name} disagree on "
                    f"verdict or state digests"
                )
        return problems


_ESCUDO = LoaderOptions(model="escudo")
_SOP = LoaderOptions(model="sop")


class Fig4Workload:
    """The eight Figure-4 pages, loaded cold under ESCUDO and SOP in pairs."""

    name = "fig4-pages"
    first_index = 0

    def __init__(self, seed: int, *, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.pages: list = []

    def build(self) -> None:
        self.pages = all_workloads(nonce_seed=self.seed)

    def setup(self) -> list[str]:
        """Generate the pages, then run the untimed warm-up rounds."""
        self.build()
        problems: list[str] = []
        for index in range(self.sizes.warmup_rounds):
            problems.extend(self.op(index).problems)
        return problems

    def _load_set(self, model: str) -> list:
        # ``loader.load_page`` is looked up per call so a traced pass sees
        # the wrapped entry point.
        if model == "escudo":
            return [
                loader.load_page(page.escudo_html, page.url,
                                 configuration=page.configuration, options=_ESCUDO)
                for page in self.pages
            ]
        return [
            loader.load_page(page.escudo_html, page.url, configuration=None, options=_SOP)
            for page in self.pages
        ]

    def op(self, index: int) -> OpResult:
        """One paired round; even rounds load ESCUDO first, odd rounds SOP."""
        perf = time.perf_counter
        loaded = {}
        times = {}
        try:
            for model in _column_order(index)[:2]:
                start = perf()
                loaded[model] = self._load_set(model)
                times[model] = perf() - start
        except Exception as error:  # a crash is a failed operation, not a dead run
            return _failed_op(error, index)
        return self._checked(index, times, loaded)

    def _checked(self, index: int, times: dict, loaded: dict) -> OpResult:
        """Check every page of the round (outside the timed region)."""
        problems: list[str] = []
        parity = []
        failed = 0
        for page, escudo, sop in zip(self.pages, loaded["escudo"], loaded["sop"]):
            escudo_elements = escudo.document.count_elements()
            sop_elements = sop.document.count_elements()
            ac_tags = escudo.labeling.ac_tags
            parity.append((page.name, ac_tags, escudo_elements, sop_elements))
            bad = []
            if ac_tags != page.spec.ac_tags:
                bad.append(f"labels {ac_tags} AC tags, expected {page.spec.ac_tags}")
            if escudo_elements != sop_elements:
                bad.append(f"ESCUDO tree has {escudo_elements} elements, SOP {sop_elements}")
            if bad:
                failed += 1
                problems.append(f"round {index} {page.name}: " + "; ".join(bad))
        return OpResult(
            times["escudo"] + times["sop"],
            times["escudo"],
            times["sop"],
            len(self.pages),
            failed,
            tuple(parity),
            problems,
            escudo_first=index % 2 == 0,
        )

    def cross_check(self, results: list[OpResult]) -> list[str]:
        """Every round must describe the same pages (the set is deterministic)."""
        reference = results[0].parity
        return [
            f"round {number}: page records differ from round 0"
            for number, result in enumerate(results)
            if result.parity != reference
        ]


def make_workload(name: str, seed: int, sizes: Sizes):
    if name == "suite-warm":
        return SuiteWorkload(seed, fresh=False, sizes=sizes)
    if name == "suite-fresh":
        return SuiteWorkload(seed, fresh=True, sizes=sizes)
    if name == "fig4-pages":
        return Fig4Workload(seed, sizes=sizes)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# -- environment record --------------------------------------------------------------------------


class _ProbeNode:
    __slots__ = ("key", "value", "next")


def host_probe_ms(iterations: int) -> float:
    """Time a fixed pure-Python loop that touches nothing of the program.

    Integer arithmetic on every iteration, and on every 16th a small object
    allocation, a string key and a dict insert, so the probe slows down with
    the host both where the program computes and where it allocates.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    node = None
    for value in range(iterations):
        total += value * value % 7
        if value % 16 == 0:
            fresh = _ProbeNode()
            fresh.key = f"k{value}"
            fresh.value = total
            fresh.next = node
            table[fresh.key] = fresh
            node = fresh
    while node is not None:
        total += table[node.key].value % 3
        node = node.next
    return (time.perf_counter() - start) * 1000.0


def _git_commit() -> str:
    """The checkout's commit from ``.git`` when there is one, else ``unknown``."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """SHA-256 over every Python file of the program (path + content)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(probes: list[float]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_digest": source_digest(),
        "host.probe_ms": statistics.median(probes) if probes else None,
        "host.probe_samples": len(probes),
    }


# -- cross-run record ------------------------------------------------------------------------------


def check_record(key: str, value: dict) -> list[str]:
    """Compare ``value`` with what an earlier run stored under ``key``.

    The key embeds the source digest, workload, seed and sizes, so two runs
    sharing a key ran the same code on the same inputs: their parity digests
    and exact counts must be identical.  The first run stores its values.
    """
    path = os.path.join(OUT_DIR, "record.json")
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    previous = record.get(key)
    if previous is not None:
        return [
            f"{field_name} differs from an earlier run of the same code and seed"
            for field_name in sorted(set(previous) | set(value))
            if previous.get(field_name) != value.get(field_name)
        ]
    record[key] = value
    os.makedirs(OUT_DIR, exist_ok=True)
    temporary = f"{path}.{os.getpid()}"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
    os.replace(temporary, path)
    return []


# -- measurement -----------------------------------------------------------------------------------


@dataclass
class RunResult:
    """What one invocation prints: the result line and a report line."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(-(-fraction * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _timed_setup(workload, sizes: Sizes) -> tuple[list[float], list[float], list[str]]:
    """Repeat set-up; returns measured and reference-time durations and problems."""
    durations, problems = [], []
    probes = [host_probe_ms(sizes.probe_iterations)]
    for _ in range(sizes.setup_repeats):
        # Every repeat starts right after a full collection, so collecting the
        # previous repeat's garbage is not charged to some repeats only.
        gc.collect()
        start = time.perf_counter()
        problems += workload.setup()
        durations.append(time.perf_counter() - start)
        probes.append(host_probe_ms(sizes.probe_iterations))
    return durations, _reference(durations, probes), problems


def _reference(durations: list[float], probes: list[float]) -> list[float]:
    """Scale each duration by ``REF_PROBE_MS`` over its neighbouring probes.

    ``probes[k]`` ran just before and ``probes[k + 1]`` just after
    ``durations[k]``: a stretch of slow host (another tenant on the same
    cores) inflates the work and the probes alike and cancels out.
    """
    return [
        duration * 2.0 * REF_PROBE_MS / (before + after)
        for duration, before, after in zip(durations, probes, probes[1:])
    ]


def _latency_metrics(results: list[OpResult], scales: list[float]) -> dict[str, float]:
    """Throughput, latency percentiles and set times of the successful ops."""
    pairs = [(result, scale) for result, scale in zip(results, scales) if result.failed == 0]
    if not pairs:
        return dict.fromkeys(
            ("scenarios_per_s", "scenario_ms_p50", "scenario_ms_p95", "escudo_set_ms",
             "sop_set_ms", "escudo_extra_ms"), 0.0)
    totals = sorted(result.total_s * scale for result, scale in pairs)
    # The paired difference is taken per run order and the orders averaged
    # (see _column_order and Fig4Workload.op).
    extra_by_order = {}
    for result, scale in pairs:
        extra_by_order.setdefault(result.escudo_first, []).append(
            (result.escudo_s - result.sop_s) * scale
        )
    ms = 1000.0
    return {
        "scenarios_per_s": len(totals) / sum(totals),
        "scenario_ms_p50": statistics.median(totals) * ms,
        "scenario_ms_p95": _percentile(totals, 0.95) * ms,
        "escudo_set_ms": statistics.median(r.escudo_s * k for r, k in pairs) * ms,
        "sop_set_ms": statistics.median(r.sop_s * k for r, k in pairs) * ms,
        "escudo_extra_ms": statistics.fmean(
            statistics.median(extras) for extras in extra_by_order.values()
        ) * ms,
    }


def measure(name: str, seed: int, seconds: float, sizes: Sizes = Sizes()) -> RunResult:
    """The untraced run: every end-to-end metric over ``seconds`` of closed loop.

    Timed metrics are reported in reference time (see ``REF_PROBE_MS``); the
    report line carries the same metrics in measured time.
    """
    workload = make_workload(name, seed, sizes)
    setup_measured, setup_durations, problems = _timed_setup(workload, sizes)

    # The host probe runs between every two operations (see _reference).
    probes = [host_probe_ms(sizes.probe_iterations)]
    results: list[OpResult] = []
    index = workload.first_index
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not results:
        results.append(workload.op(index))
        index += 1
        probes.append(host_probe_ms(sizes.probe_iterations))
    scales = _reference([1.0] * len(results), probes)

    prefix = results[: sizes.parity_prefix]
    problems = problems + [p for result in results for p in result.problems]
    problems += workload.cross_check(results)
    parity = _parity_digest(result.parity for result in prefix)
    problems += check_record(
        f"{name}|seed={seed}|prefix={len(prefix)}|{sizes}|src={source_digest()}",
        {"parity": parity},
    )

    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    metrics = _latency_metrics(results, scales)
    metrics["ok_share"] = (attempted - failed) / attempted
    metrics["setup_s"] = statistics.median(setup_durations)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured = _latency_metrics(results, [1.0] * len(results))
    measured["setup_s"] = statistics.median(setup_measured)
    report = {
        "workload": name,
        "seed": seed,
        "samples": sum(1 for result in results if result.failed == 0),
        "setup_samples": len(setup_durations),
        "escudo_extra_ms": metrics["escudo_extra_ms"],
        "overhead_pct": (
            metrics["escudo_extra_ms"] / metrics["sop_set_ms"] * 100.0
            if metrics["sop_set_ms"] else None
        ),
        "measured": measured,
        "parity_sha256": parity,
        "problems": problems[:20],
        **environment(probes),
    }
    units = dict(E2E_METRICS)
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={key: {"value": metrics[key], "unit": units[key]} for key, _ in E2E_METRICS},
        report=report,
    )


def run_pass(name: str, seed: int, sizes: Sizes, tracer: "layers.Tracer | None" = None):
    """One fixed-size pass (set-up plus ``pass_ops`` operations).

    Returns ``(wall_s, results, setup_problems)``.  With a tracer, the
    pass runs with every layer wrapped and each operation's spans tagged
    with its index.
    """
    workload = make_workload(name, seed, sizes)
    count = sizes.pass_ops[name]
    if tracer is None:
        start = time.perf_counter()
        problems = workload.setup()
        results = [workload.op(workload.first_index + n) for n in range(count)]
        return time.perf_counter() - start, results, problems
    with layers.installed(tracer):
        start = time.perf_counter()
        problems = workload.setup()
        results = []
        for n in range(count):
            tracer.op = workload.first_index + n
            results.append(workload.op(workload.first_index + n))
        wall = time.perf_counter() - start
    return wall, results, problems


def measure_traced(name: str, seed: int, seconds: float, sizes: Sizes = Sizes()) -> RunResult:
    """The traced run: per-layer counts and self times over fixed-size passes.

    Untraced and traced passes alternate until ``seconds`` have passed (and
    at least ``min_passes`` of each ran).  Every pass must produce the same
    parity digest -- tracing is passive -- and every traced pass the same
    exact counts.  The traced pass with the median wall time is reported;
    the tracing overhead is the median traced/untraced ratio of adjacent
    passes in reference time.
    """
    make_workload(name, seed, sizes)  # validate the name before any work
    # Pass walls in run order (untraced, traced, untraced, ...) with a host
    # probe before the first and after every pass (see _reference).
    walls: list[float] = []
    probes = [host_probe_ms(sizes.probe_iterations)]
    traced: list[tuple[float, layers.Tracer]] = []
    digests: set[str] = set()
    count_sets: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < sizes.min_passes:
        wall, results, setup_problems = run_pass(name, seed, sizes)
        probes.append(host_probe_ms(sizes.probe_iterations))
        tracer = layers.Tracer()
        traced_wall, traced_results, traced_setup_problems = run_pass(name, seed, sizes, tracer)
        probes.append(host_probe_ms(sizes.probe_iterations))
        walls += [wall, traced_wall]
        traced.append((traced_wall, tracer))
        for batch, batch_setup in ((results, setup_problems), (traced_results, traced_setup_problems)):
            digests.add(_parity_digest(result.parity for result in batch))
            problems += batch_setup + [p for result in batch for p in result.problems]
            attempted += sum(result.attempted for result in batch)
            failed += sum(result.failed for result in batch)
        count_sets.append({"calls": dict(tracer.calls), "counts": dict(tracer.counts)})

    if len(digests) != 1:
        problems.append("traced and untraced passes produced different parity digests")
    if any(counts != count_sets[0] for counts in count_sets):
        problems.append("exact counts differ between traced passes of the same seed")
    problems += check_record(
        f"{name}|seed={seed}|traced|{sizes}|src={source_digest()}",
        {"parity": sorted(digests), "counts": count_sets[0]},
    )

    reference = _reference(walls, probes)
    overhead = statistics.median(
        traced_ref / untraced_ref for untraced_ref, traced_ref in zip(reference[::2], reference[1::2])
    )
    traced.sort(key=lambda item: item[0])
    wall, tracer = traced[len(traced) // 2]
    values = layers.layer_metrics(tracer)
    values["other.self_ms"] = (wall - tracer.wall_covered_s()) * 1000.0
    values["trace.wall_ms"] = wall * 1000.0
    values["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    values["host.probe_ms"] = statistics.median(probes)
    _write_spans(name, seed, tracer)

    units = {metric[0]: metric[1] for metric in layers.LAYER_METRICS}
    units.update({metric[0]: metric[1] for metric in TRACE_METRICS})
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(traced),
        "pass_ops": sizes.pass_ops[name],
        "untraced_pass_ms": statistics.median(walls[::2]) * 1000.0,
        "parity_sha256": sorted(digests),
        "spans": len(tracer.spans),
        "problems": problems[:20],
        **environment(probes),
    }
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={key: {"value": value, "unit": units[key]} for key, value in values.items()},
        report=report,
    )


def _write_spans(name: str, seed: int, tracer: "layers.Tracer") -> None:
    """Write the reported pass's spans (gzipped JSON lines) when the run ends."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(["id", "name", "start_s", "end_s", "parent", "op"]) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def write_report(result: RunResult, trace: int) -> None:
    report = result.report
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{report['workload']}-seed{report['seed']}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**result.result_line(), "report": report}, handle, indent=2, sort_keys=True)
