"""Test helper: select the script engine every ``ScriptRuntime`` builds.

Production runs every script on the bytecode
:class:`~repro.scripting.vm.VirtualMachine`.  The AST-walking
:class:`~repro.scripting.interpreter.Interpreter` is the reference
semantics the VM is checked against, so the differential tests swap it into
:class:`~repro.browser.script_runtime.ScriptRuntime` -- the same pattern as
``tests/browser/recursive_labeler.py`` for the labelling pass.

``use_engine("walker")`` replaces ``ScriptRuntime.make_engine`` and
``ScriptRuntime._run_source`` for the duration of a ``with`` block;
``use_engine("vm")`` leaves the production pair in place.  Either way the
yielded :class:`EngineUse` counts the engines built by class name, so a
test can prove the engine it asked for is the one that ran.
"""

from __future__ import annotations

import contextlib
from collections import Counter

from repro.browser.script_runtime import ScriptRuntime
from repro.scripting.errors import ScriptError
from repro.scripting.interpreter import ExecutionResult, Interpreter

ENGINES = ("vm", "walker")

#: Engine name -> the class :func:`use_engine` builds for it.
ENGINE_CLASS = {"vm": "VirtualMachine", "walker": "Interpreter"}


class EngineUse:
    """Engines built inside one :func:`use_engine` block, by class name."""

    def __init__(self) -> None:
        self.built: Counter = Counter()

    def assert_only(self, engine: str) -> None:
        """At least one engine was built, and every one was ``engine``'s class."""
        class_name = ENGINE_CLASS[engine]
        assert self.built[class_name] > 0, f"no {class_name} was built: {dict(self.built)}"
        assert set(self.built) == {class_name}, f"mixed engines built: {dict(self.built)}"


def _walker_run_source(runtime: ScriptRuntime, interpreter: Interpreter, source: str):
    """The walker's path: through the shared AST cache when one is configured."""
    if runtime.ast_cache is None:
        return interpreter.run(source)
    try:
        program = runtime.ast_cache.parse(source)
    except ScriptError as error:
        return ExecutionResult(error=error, completed=False)
    return interpreter.run(program)


@contextlib.contextmanager
def use_engine(name: str):
    """Run every script principal on ``name`` ("vm" or "walker") inside the block."""
    if name not in ENGINES:
        raise ValueError(f"unknown script engine {name!r}")
    use = EngineUse()
    original_make = ScriptRuntime.make_engine
    original_run = ScriptRuntime._run_source

    def make_engine(runtime):
        engine = (
            Interpreter(max_steps=runtime.max_steps)
            if name == "walker"
            else original_make(runtime)
        )
        use.built[type(engine).__name__] += 1
        return engine

    ScriptRuntime.make_engine = make_engine
    if name == "walker":
        ScriptRuntime._run_source = _walker_run_source
    try:
        yield use
    finally:
        ScriptRuntime.make_engine = original_make
        ScriptRuntime._run_source = original_run
