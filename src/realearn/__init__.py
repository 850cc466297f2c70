"""Exact nested-interval reals with an interactive order learner.

The package provides:

* exact computable reals as nested rational-interval sequences with a
  decidable precision-indexed strict-order predicate (:mod:`.reals`);
* knowledge states, evidence chains, and blame propagation for learned
  order facts (:mod:`.knowledge`);
* least-element learning with restart backtracking (:mod:`.least`);
* plane geometry over exact reals and the certified convex-angle
  construction (:mod:`.geometry`, :mod:`.convex`);
* exact rational oracles (:mod:`.oracle`);
* trace events, their writer and reader (:mod:`.trace`), and replay of
  recorded runs along the decision tree (:mod:`.replay`);
* a line-oriented document format and a CLI (:mod:`.inputs`, :mod:`.cli`);
* the exceptions that end a CLI command with a known exit code
  (:mod:`.errors`).

Importing the package imports none of these modules.  Each name below is
looked up in its module on first access (a PEP 562 module
``__getattr__``), so a process loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_MODULES = {
    "convex": ("ConvexAngleResult", "TooFewPoints", "convex_angle"),
    "errors": ("CertificateFailure", "DegenerateInput",
               "ForcedChallengeDenied", "PathMismatch",
               "RestartBudgetExceeded"),
    "geometry": ("BoundingCertificate", "Left", "NoWitnessFound", "Point",
                 "RationalPoint", "Right", "SideDecision", "decide_side",
                 "three_points", "verify_bounding"),
    "knowledge": ("Assumed", "Falsified", "KnowledgeState", "LeqEvidence",
                  "Refl", "ReflFalsified", "Step", "UnsoundWitness", "blame",
                  "check_leq", "empty_state", "extend", "is_sound"),
    "least": ("Auditor", "Challenge", "LeastCandidate", "LearnOutcome",
              "NullAuditor", "ScriptedAuditor", "learn_least",
              "least_candidate"),
    "oracle": ("OracleAuditor", "TieDetected", "exact_convex_check",
               "exact_min_index", "exact_orientation", "separation_from_gap"),
    "reals": ("InvalidNesting", "RealNum", "RealRegistry",
              "find_strict_witness", "least_witness", "op_at"),
    "replay": ("ReplayVerdict", "replay_paths"),
    "trace": ("TraceEvent", "TraceLog", "read_trace"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
