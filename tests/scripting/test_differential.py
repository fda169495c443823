"""Differential parity: the AST walker and the bytecode VM must agree.

Three layers of evidence, from micro to macro:

* a seeded fuzzer generates random-but-valid MiniScript programs and runs
  each through both engines -- values, error classes and completion flags
  must match exactly;
* the scenario corpus (a 50-scenario seeded suite plus every pinned
  regression spec) replays under both engines and the canonical parity
  reports must be byte-identical;
* the Section-6.4 defense-effectiveness matrix runs under both engines and
  every attack verdict must match.

The macro layers select the engine with :func:`.walker_engine.use_engine`,
which swaps the walker into the browser's script runtime; each asserts the
engine it asked for is the only one that was built.

The fuzzer deliberately avoids the few constructs whose *failure shape*
legitimately differs between engines (deep recursion trips Python's own
recursion limit at engine-dependent depths), and keeps loops small enough
to stay inside the step budget.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.scenarios.engine import run_suite
from repro.scenarios.model import canonical_spec_json
from repro.scenarios.runner import ScenarioRunner
from repro.scripting.compiler import compile_program
from repro.scripting.errors import ScriptError
from repro.scripting.interpreter import Interpreter
from repro.scripting.parser import parse_script
from repro.scripting.vm import VirtualMachine

from .walker_engine import ENGINES, use_engine


def describe(result_factory):
    """Collapse a run into a comparable outcome tuple.

    ``("value", v)`` for success, ``("error", ErrorClass)`` for script
    errors, ``("raw", ExcClass)`` for Python exceptions that escape the
    engine (e.g. ``ZeroDivisionError`` from ``% 0`` -- both engines let it
    through identically).  NaN compares equal to itself via a sentinel.
    """
    try:
        result = result_factory()
    except Exception as raw:  # noqa: BLE001 - raw escapes are part of the contract
        return ("raw", type(raw).__name__)
    if result.failed:
        return ("error", type(result.error).__name__)
    return ("value", _canon(result.value))


def _canon(value):
    from repro.scripting.interpreter import NativeFunction, ScriptFunction

    if isinstance(value, float) and math.isnan(value):
        return "<NaN>"
    if isinstance(value, (ScriptFunction, NativeFunction)) or callable(value):
        # Function identity differs by representation (walker closures vs
        # compiled closures); both engines agreeing it *is* a function is
        # the observable fact.
        return "<function>"
    if isinstance(value, list):
        return tuple(_canon(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    return value


def assert_parity(source: str):
    walker = describe(lambda: Interpreter(max_steps=50_000).run(parse_script(source)))
    try:
        code = compile_program(parse_script(source))
    except ScriptError as error:  # pragma: no cover - fuzzer emits valid code
        pytest.fail(f"compile failed for walker-valid source: {error}\n{source}")
    vm = describe(lambda: VirtualMachine(max_steps=50_000).run(code))
    assert vm == walker, f"engines diverge on:\n{source}\nwalker={walker}\nvm={vm}"


# -- the seeded program generator -----------------------------------------------------


class _Fuzzer:
    """Grows random-but-valid MiniScript programs from a seeded RNG."""

    BINARY_OPS = ("+", "-", "*", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.counter = 0

    def name(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def literal(self) -> str:
        roll = self.rng.random()
        if roll < 0.45:
            return str(self.rng.randint(-50, 50))
        if roll < 0.65:
            return f"'{self.rng.choice(['a', 'b', 'ring', 'x_', ''])}'"
        if roll < 0.8:
            return self.rng.choice(["true", "false"])
        if roll < 0.9:
            return "null"
        return f"[{', '.join(str(self.rng.randint(0, 9)) for _ in range(self.rng.randint(0, 3)))}]"

    def expression(self, names: list[str], depth: int = 0) -> str:
        roll = self.rng.random()
        if depth >= 3 or roll < 0.35 or not names:
            return self.literal() if not names or roll < 0.5 else self.rng.choice(names)
        if roll < 0.8:
            op = self.rng.choice(self.BINARY_OPS)
            return (
                f"({self.expression(names, depth + 1)} {op} "
                f"{self.expression(names, depth + 1)})"
            )
        if roll < 0.9:
            return f"(!{self.expression(names, depth + 1)})"
        return (
            f"({self.expression(names, depth + 1)} ? "
            f"{self.expression(names, depth + 1)} : {self.expression(names, depth + 1)})"
        )

    def statement(self, names: list[str], depth: int = 0) -> str:
        roll = self.rng.random()
        if roll < 0.4 or depth >= 2:
            name = self.name()
            declaration = f"var {name} = {self.expression(names)};"
            names.append(name)
            return declaration
        if roll < 0.55 and names:
            return f"{self.rng.choice(names)} = {self.expression(names)};"
        if roll < 0.7:
            body = " ".join(self.statement(list(names), depth + 1) for _ in range(2))
            return f"if ({self.expression(names)}) {{ {body} }}"
        if roll < 0.85:
            index = self.name()
            bound = self.rng.randint(1, 6)
            body = self.statement(list(names) + [index], depth + 1)
            return (
                f"for (var {index} = 0; {index} < {bound}; "
                f"{index} = {index} + 1) {{ {body} }}"
            )
        name = self.name()
        parameter = self.name()
        body = self.statement([parameter], depth + 1)
        call_arg = self.expression(names)
        names.append(name)
        return (
            f"function {name}({parameter}) {{ {body} return {parameter}; }} "
            f"{name}({call_arg});"
        )

    def program(self) -> str:
        names: list[str] = []
        statements = [self.statement(names) for _ in range(self.rng.randint(3, 8))]
        if names:
            statements.append(f"{self.rng.choice(names)};")
        return "\n".join(statements)


@pytest.mark.parametrize("seed", range(60))
def test_fuzzed_programs_agree(seed):
    assert_parity(_Fuzzer(seed).program())


class TestKnownEdgeCases:
    """Hand-picked programs that exercise the engines' trickiest corners."""

    @pytest.mark.parametrize(
        "source",
        [
            "0 / 0;",  # NaN completion value
            "1 / 0;",  # signed infinity
            "'a' * 2;",  # NaN from string coercion
            "var x = 'x' * 1; (x <= x) ? 'T' : 'F';",  # NaN through fused jumps
            "var n = 0; for (var i = 0; i < 3; i = i + 1) { if (i == 1) { continue; } n = n + i; } n;",
            "var n = 0; while (true) { n = n + 1; if (n > 4) { break; } } n;",
            "typeof missing;",  # soft-absorbed lookup failure
            "var o = {a: 1}; o.b = o.a + 1; o.b;",
            "var xs = [1, 2, 3]; xs.push(4); xs[3] + xs.length;",
            "var s = 'a|b'; s.split('|')[1];",
            "function f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); } f(10);",
            "var x = 1; { var x = 2; } x;",  # block scoping
            "missing_name;",  # reference error
            "null.x;",  # member access on null
        ],
    )
    def test_edge_case_parity(self, source):
        assert_parity(source)


# -- macro parity: scenarios and the defense matrix -----------------------------------


def _suite_report(engine: str) -> str:
    with use_engine(engine) as use:
        suite = run_suite(seed=42, count=50, attack_ratio=0.25, runner=ScenarioRunner())
    use.assert_only(engine)
    return canonical_spec_json(suite.parity_dict())


def test_scenario_suite_is_engine_invariant():
    """The canonical suite report must be byte-identical under both engines."""
    assert _suite_report("vm") == _suite_report("walker")


def _observed(run):
    """What one model's run observed: state, mediation counts and denials."""
    return (
        run.digest,
        run.mediations,
        run.denied,
        run.pages_loaded,
        run.tasks_run,
        run.attack_result.succeeded if run.attack_result else None,
        [denial.as_dict() for denial in run.attack_denials],
    )


def test_corpus_entries_are_engine_invariant():
    """Every pinned regression spec classifies identically under both engines."""
    from repro.scenarios import load_corpus
    from repro.scenarios.model import Scenario
    from repro.scenarios.oracle import DifferentialOracle

    entries = load_corpus()
    assert entries, "corpus must not be empty"
    for path, entry in entries:
        scenario = Scenario.from_dict(entry.spec)
        verdicts = {}
        for engine in ENGINES:
            with use_engine(engine) as use:
                runs = ScenarioRunner(models=entry.models).run(scenario)
            use.assert_only(engine)
            verdict = DifferentialOracle().classify(scenario, runs)
            verdicts[engine] = (
                verdict.ok,
                verdict.reason,
                {model: _observed(run) for model, run in runs.items()},
            )
        assert verdicts["vm"] == verdicts["walker"], f"{path.name} diverges"


def test_defense_matrix_is_engine_invariant():
    """Section 6.4: every attack verdict must match under both engines."""
    from repro.attacks.harness import defense_effectiveness_matrix, registered_attacks

    def flatten(matrix):
        return {
            model: [
                (result.attack_name, result.app_key, result.succeeded, result.detail)
                for result in results
            ]
            for model, results in matrix.items()
        }

    attacks = registered_attacks()
    matrices = {}
    for engine in ENGINES:
        with use_engine(engine) as use:
            matrices[engine] = flatten(defense_effectiveness_matrix(attacks))
        use.assert_only(engine)
    assert matrices["vm"] == matrices["walker"]
