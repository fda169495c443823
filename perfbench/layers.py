"""Layer tracing from outside the program.

:func:`installed` wraps the public entry point of each layer of the stack --
at the name its caller looks it up by -- with a span recorder, runs the
traced work, and restores every original function on exit.  Spans are kept
in memory (name, start, end, parent, operation id); a layer's self time is
its span duration minus the time its child spans cover.  A span that calls
an entry point of its own layer (``super()`` chains, ``settle`` calling
``advance``, ``Document.clone`` calling ``Node.clone``) is merged into the
outer span, so ``calls`` counts entries into a layer, not internal hops.

Nothing here changes what the wrapped functions compute: the benchmark
checks that a traced pass yields the same parity digest as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

_MISSING = object()


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        #: Finished spans: ``(span_id, name, start_s, end_s, parent_id, op)``.
        self.spans: list[tuple] = []
        #: Open spans: ``[name, span_id, child_seconds]``.
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        #: Summed duration of the outermost spans of each name.
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        #: Identifier of the scenario or page round being traced.
        self.op: object = "setup"
        self._next_id = 0

    def span_wrapper(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each outermost call records one ``name`` span.

        ``before(args)`` returns a token handed to ``after(counts, args,
        result, token)``; both run only for outermost calls.
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            token = before(args) if before is not None else None
            frame = [name, span_id, 0.0]
            stack.append(frame)
            result = _MISSING
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((span_id, name, start, end, parent, tracer.op))
                if after is not None:
                    after(tracer.counts, args, result, token)

        return wrapper

    def count_wrapper(self, fn, after):
        """Wrap ``fn`` with a counter only (for calls too frequent to span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(counts, args, result)
            return result

        return wrapper

    def wall_covered_s(self) -> float:
        """Total self time of every span (= time inside any top-level span)."""
        return sum(self.self_s.values())


# -- counter hooks --------------------------------------------------------------------------


def _hits_before(args):
    return args[0].hits, args[0].misses


def _template_after(counts, args, result, token):
    counts["compile_cache.template_hits"] += args[0].hits - token[0]
    counts["compile_cache.template_misses"] += args[0].misses - token[1]


def _code_after(counts, args, result, token):
    counts["script.code_misses"] += args[0].misses - token[1]


def _tasks_before(args):
    return args[0].stats.tasks_run


def _tasks_after(counts, args, result, token):
    counts["event_loop.tasks_run"] += args[0].stats.tasks_run - token


def _authorize_after(counts, args, result, token):
    if result is not _MISSING and not result.allowed:
        counts["monitor.denied"] += 1


def _authorize_all_after(counts, args, result, token):
    if result is not _MISSING:
        counts["monitor.denied"] += sum(1 for decision in result if not decision.allowed)


def _tokenize_after(counts, args, result):
    counts["html.bytes"] += len(args[0].encode("utf-8"))


def _cache_get_after(counts, args, result):
    counts["decision_cache.lookups"] += 1
    if result is not None:
        counts["decision_cache.hits"] += 1


def _ring_after(counts, args, result):
    counts["rings.constructions"] += 1


# -- what gets wrapped ------------------------------------------------------------------------

#: ``(span name, module, attribute path, before hook, after hook)``.  A class
#: method is also wrapped on every subclass that overrides it.
SPAN_TARGETS: tuple[tuple, ...] = (
    ("generator", "repro.scenarios.generator", "ScenarioGenerator.scenario", None, None),
    ("runner.init", "repro.scenarios.runner", "ScenarioRunner.__init__", None, None),
    ("runner.warm", "repro.scenarios.runner", "ScenarioRunner.warm_for", None, None),
    ("runner.run", "repro.scenarios.runner", "ScenarioRunner.run_under", None, None),
    ("harness.build_env", "repro.scenarios.runner", "build_environment", None, None),
    ("harness.login", "repro.scenarios.runner", "login_user", None, None),
    ("oracle", "repro.scenarios.oracle", "DifferentialOracle.classify", None, None),
    ("browser", "repro.browser.browser", "Browser.load", None, None),
    ("browser", "repro.browser.browser", "Browser.issue_request", None, None),
    ("browser", "repro.browser.browser", "Browser.submit_form", None, None),
    ("browser", "repro.browser.browser", "Browser.click_link", None, None),
    ("browser", "repro.browser.browser", "Browser.run_script", None, None),
    ("browser", "repro.browser.browser", "Browser.advance_time", None, None),
    ("browser", "repro.browser.browser", "Browser.drain", None, None),
    ("network", "repro.http.network", "Network.dispatch", None, None),
    ("webapps.handle", "repro.webapps.framework", "WebApplication.handle_request", None, None),
    ("webapps.digest", "repro.webapps.framework", "WebApplication.state_digest", None, None),
    ("webapps.digest", "repro.webapps.framework", "WebApplication.snapshot_state", None, None),
    *(
        ("storage.read", "repro.webapps.storage", f"DictBackend.{method}", None, None)
        for method in ("get", "all", "select", "count")
    ),
    *(
        ("storage.write", "repro.webapps.storage", f"DictBackend.{method}", None, None)
        for method in ("insert", "insert_many", "update", "delete")
    ),
    ("loader", "repro.browser.loader", "load_page", None, None),
    ("loader", "repro.browser.browser", "load_page", None, None),
    ("html.build", "repro.html.parser", "TreeBuilder.build", None, None),
    ("compile_cache.entry", "repro.browser.compile_cache", "TemplateCache.entry",
     _hits_before, _template_after),
    ("compile_cache.labeled_tree", "repro.browser.compile_cache", "TemplateCache.labeled_tree",
     None, None),
    ("dom.clone", "repro.dom.node", "Node.clone", None, None),  # and Document.clone
    ("labeler", "repro.browser.labeler", "PageLabeler.label_document", None, None),
    *(
        ("config.extract_ac_label", module, "extract_ac_label", None, None)
        for module in (
            "repro.core.config",
            "repro.browser.labeler",
            "repro.dom.element",
            "repro.dom.dom_api",
        )
    ),
    ("renderer", "repro.browser.renderer", "Renderer.render", None, None),
    ("script.execute", "repro.browser.script_runtime", "ScriptRuntime.execute", None, None),
    ("script.execute", "repro.browser.script_runtime", "ScriptRuntime.execute_handler", None, None),
    ("script.code_for", "repro.scripting.cache", "ScriptCodeCache.code_for",
     _hits_before, _code_after),
    ("script.compile", "repro.scripting.cache", "ScriptAstCache.parse", None, None),
    ("script.compile", "repro.scripting.compiler", "compile_program", None, None),
    ("vm.run", "repro.scripting.vm", "VirtualMachine.run", None, None),
    ("vm.run", "repro.scripting.vm", "VirtualMachine.call_function", None, None),
    ("monitor.authorize", "repro.core.monitor", "ReferenceMonitor.authorize",
     None, _authorize_after),
    ("monitor.authorize_all", "repro.core.monitor", "ReferenceMonitor.authorize_all",
     None, _authorize_all_after),
    ("monitor.warm", "repro.core.monitor", "ReferenceMonitor.warm", None, None),
    *(
        ("event_loop", "repro.browser.event_loop", f"EventLoop.{method}", _tasks_before, _tasks_after)
        for method in ("run_task", "advance", "drain", "settle")
    ),
)

#: ``(module, attribute path, after hook)`` for count-only wrappers.
COUNT_TARGETS: tuple[tuple, ...] = (
    *(
        (module, "tokenize", _tokenize_after)
        for module in ("repro.browser.loader", "repro.browser.compile_cache", "repro.html.parser")
    ),
    ("repro.core.cache", "DecisionCache.get", _cache_get_after),
    ("repro.core.rings", "Ring.__init__", _ring_after),
)

#: Modules whose classes override wrapped methods; imported before patching
#: so their overrides are found.
_SUBCLASS_MODULES = ("repro.webapps.phpbb", "repro.webapps.phpcalendar", "repro.webapps.blog")


def _owners(module_name: str, path: str):
    """``(owner, attribute)`` pairs to patch for one target.

    A module-level name patches the module; ``Class.method`` patches the
    class and every subclass that defines its own ``method``.
    """
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path)]
    class_name, attr = path.split(".")
    cls = getattr(module, class_name)
    owners, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if attr in vars(klass):
            owners.append((klass, attr))
        pending.extend(klass.__subclasses__())
    return owners


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for ``tracer``; restore the originals on exit."""
    for module_name in _SUBCLASS_MODULES:
        importlib.import_module(module_name)
    patches: list[tuple] = []
    try:
        for name, module_name, path, before, after in SPAN_TARGETS:
            for owner, attr in _owners(module_name, path):
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, tracer.span_wrapper(name, original, before, after))
        for module_name, path, after in COUNT_TARGETS:
            for owner, attr in _owners(module_name, path):
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, tracer.count_wrapper(original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------------------------

#: Every per-layer metric: ``(name, unit, better, source, predicted move)``.
#: ``source`` is ``("calls", span)``, ``("self", span, ...)`` (summed self
#: time in ms), ``("total", span)`` (span time including children, in ms) or
#: ``("count", key)``.  The predicted move names the
#: end-to-end metric and workload a change to the layer should move.
LAYER_METRICS: tuple[tuple, ...] = (
    ("network.calls", "count", "lower", ("calls", "network"), "scenarios_per_s on suite-warm"),
    ("network.self_ms", "ms", "lower", ("self", "network"), "scenarios_per_s on suite-warm"),
    ("webapps.handle.calls", "count", "lower", ("calls", "webapps.handle"),
     "scenarios_per_s on suite-warm"),
    ("webapps.handle.self_ms", "ms", "lower", ("self", "webapps.handle"),
     "scenarios_per_s on suite-warm"),
    ("webapps.digest.self_ms", "ms", "lower", ("self", "webapps.digest"),
     "scenarios_per_s on suite-warm"),
    ("storage.read.calls", "count", "lower", ("calls", "storage.read"),
     "scenarios_per_s on suite-warm"),
    ("storage.read.self_ms", "ms", "lower", ("self", "storage.read"),
     "scenarios_per_s on suite-warm"),
    ("storage.write.calls", "count", "lower", ("calls", "storage.write"),
     "scenarios_per_s on suite-warm"),
    ("storage.write.self_ms", "ms", "lower", ("self", "storage.write"),
     "scenarios_per_s on suite-warm"),
    ("html.build.calls", "count", "lower", ("calls", "html.build"),
     "scenarios_per_s on suite-fresh; escudo_set_ms and sop_set_ms on fig4-pages"),
    ("html.build.self_ms", "ms", "lower", ("self", "html.build"),
     "scenarios_per_s on suite-fresh; escudo_set_ms and sop_set_ms on fig4-pages"),
    ("html.bytes", "bytes", "lower", ("count", "html.bytes"),
     "scenarios_per_s on suite-fresh; both *_set_ms on fig4-pages"),
    ("compile_cache.template_hits", "count", "higher", ("count", "compile_cache.template_hits"),
     "scenarios_per_s on suite-warm"),
    ("compile_cache.template_misses", "count", "lower",
     ("count", "compile_cache.template_misses"), "scenarios_per_s on suite-fresh"),
    ("compile_cache.entry.self_ms", "ms", "lower", ("self", "compile_cache.entry"),
     "scenarios_per_s on suite-warm"),
    ("compile_cache.labeled_tree.self_ms", "ms", "lower", ("self", "compile_cache.labeled_tree"),
     "scenarios_per_s on suite-warm"),
    ("dom.clone.calls", "count", "lower", ("calls", "dom.clone"), "scenarios_per_s on suite-warm"),
    ("dom.clone.self_ms", "ms", "lower", ("self", "dom.clone"), "scenarios_per_s on suite-warm"),
    ("labeler.calls", "count", "lower", ("calls", "labeler"),
     "escudo_set_ms (not sop_set_ms) on fig4-pages, then scenarios_per_s on suite-fresh"),
    ("labeler.self_ms", "ms", "lower", ("self", "labeler"),
     "escudo_set_ms (not sop_set_ms) on fig4-pages, then scenarios_per_s on suite-fresh"),
    ("config.extract_ac_label.calls", "count", "lower", ("calls", "config.extract_ac_label"),
     "escudo_set_ms (not sop_set_ms) on fig4-pages"),
    ("config.extract_ac_label.self_ms", "ms", "lower", ("self", "config.extract_ac_label"),
     "escudo_set_ms (not sop_set_ms) on fig4-pages"),
    ("rings.constructions", "count", "lower", ("count", "rings.constructions"),
     "escudo_set_ms (not sop_set_ms) on fig4-pages"),
    ("renderer.calls", "count", "lower", ("calls", "renderer"),
     "escudo_set_ms and sop_set_ms on fig4-pages; scenarios_per_s on suite-fresh"),
    ("renderer.self_ms", "ms", "lower", ("self", "renderer"),
     "escudo_set_ms and sop_set_ms on fig4-pages; scenarios_per_s on suite-fresh"),
    ("loader.self_ms", "ms", "lower", ("self", "loader"),
     "escudo_set_ms and sop_set_ms on fig4-pages"),
    ("script.execute.calls", "count", "lower", ("calls", "script.execute"),
     "scenarios_per_s on suite-warm"),
    ("script.execute.self_ms", "ms", "lower", ("self", "script.execute"),
     "scenarios_per_s on suite-warm"),
    ("script.code_for.calls", "count", "lower", ("calls", "script.code_for"),
     "scenarios_per_s on suite-warm"),
    ("script.code_misses", "count", "lower", ("count", "script.code_misses"),
     "scenarios_per_s on suite-fresh"),
    ("script.code_for.self_ms", "ms", "lower", ("self", "script.code_for"),
     "scenarios_per_s on suite-warm"),
    ("script.compile.self_ms", "ms", "lower", ("self", "script.compile"),
     "scenarios_per_s on suite-fresh"),
    ("vm.run.self_ms", "ms", "lower", ("self", "vm.run"), "scenarios_per_s on suite-warm"),
    ("monitor.authorize.calls", "count", "lower", ("calls", "monitor.authorize"),
     "scenarios_per_s on suite-warm"),
    ("monitor.authorize_all.calls", "count", "lower", ("calls", "monitor.authorize_all"),
     "scenarios_per_s on suite-warm"),
    ("monitor.self_ms", "ms", "lower",
     ("self", "monitor.authorize", "monitor.authorize_all", "monitor.warm"),
     "scenarios_per_s on suite-warm (small, about 5%)"),
    ("monitor.denied", "count", "lower", ("count", "monitor.denied"),
     "none: a semantic count that must not change"),
    ("decision_cache.hits", "count", "higher", ("count", "decision_cache.hits"),
     "scenarios_per_s on suite-warm"),
    ("decision_cache.lookups", "count", "lower", ("count", "decision_cache.lookups"),
     "scenarios_per_s on suite-warm"),
    ("event_loop.tasks_run", "count", "lower", ("count", "event_loop.tasks_run"),
     "none: a semantic count that must not change"),
    ("event_loop.self_ms", "ms", "lower", ("self", "event_loop"), "scenarios_per_s on suite-warm"),
    ("browser.self_ms", "ms", "lower", ("self", "browser"),
     "scenarios_per_s on suite-warm and suite-fresh"),
    ("runner.init.self_ms", "ms", "lower", ("self", "runner.init"),
     "scenarios_per_s on suite-fresh; setup_s on suite-warm"),
    ("runner.warm.self_ms", "ms", "lower", ("self", "runner.warm"),
     "scenarios_per_s on suite-fresh; setup_s on suite-warm"),
    ("runner.warm.total_ms", "ms", "lower", ("total", "runner.warm"),
     "scenarios_per_s on suite-fresh; setup_s on suite-warm"),
    ("runner.run.self_ms", "ms", "lower", ("self", "runner.run"),
     "scenarios_per_s on suite-warm and suite-fresh"),
    ("harness.build_env.calls", "count", "lower", ("calls", "harness.build_env"),
     "scenarios_per_s on suite-fresh"),
    ("harness.build_env.self_ms", "ms", "lower", ("self", "harness.build_env"),
     "scenarios_per_s on suite-fresh; setup_s on suite-warm"),
    ("harness.login.self_ms", "ms", "lower", ("self", "harness.login"),
     "scenarios_per_s on suite-fresh and suite-warm"),
    ("generator.self_ms", "ms", "lower", ("self", "generator"),
     "scenarios_per_s on suite-warm and suite-fresh"),
    ("oracle.self_ms", "ms", "lower", ("self", "oracle"),
     "scenarios_per_s on suite-warm and suite-fresh"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value measured by ``tracer``."""
    values: dict[str, float] = {}
    for name, _unit, _better, source, _moves in LAYER_METRICS:
        kind, *keys = source
        if kind == "calls":
            values[name] = tracer.calls[keys[0]]
        elif kind == "count":
            values[name] = tracer.counts[keys[0]]
        elif kind == "total":
            values[name] = tracer.total_s[keys[0]] * 1000.0
        else:
            values[name] = sum(tracer.self_s[key] for key in keys) * 1000.0
    return values


def span_names() -> set[str]:
    """Every span name a traced pass can record."""
    return {target[0] for target in SPAN_TARGETS}
