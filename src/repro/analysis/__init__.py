"""Static-analysis tier: mediation-flow screening + repo-invariant linting.

Two independent layers share this package:

- :mod:`repro.analysis.soundness` -- the runtime side of the script
  analyzer (:mod:`repro.scripting.analysis`): a :class:`StaticScreen`
  attributes every reference-monitor decision to the script that caused it
  and checks the soundness contract *dynamic accesses ⊆ static prediction*
  per script digest.
- :mod:`repro.analysis.repolint` -- a Python-``ast`` linter that turns the
  repo's dynamic invariants (touch-state honesty, determinism, no pickle)
  into static CI gates.
"""

from .soundness import (
    SoundnessViolation,
    StaticScreen,
    classify_decision,
)

__all__ = [
    "SoundnessViolation",
    "StaticScreen",
    "classify_decision",
]
