"""Exact nested-interval reals with an interactive order learner.

The package provides:

* exact computable reals as nested rational-interval sequences with a
  decidable precision-indexed strict-order predicate (:mod:`.reals`);
* knowledge states, evidence chains, and blame propagation for learned
  order facts (:mod:`.knowledge`);
* least-element learning with restart backtracking (:mod:`.least`);
* plane geometry over exact reals and the certified convex-angle
  construction (:mod:`.geometry`, :mod:`.convex`);
* exact rational oracles and trace replay audits (:mod:`.oracle`);
* a line-oriented document format and a CLI (:mod:`.inputs`, :mod:`.cli`).
"""

from .convex import (
    BoundingCertificate,
    CertificateFailure,
    ConvexAngleResult,
    TooFewPoints,
    convex_angle,
    verify_bounding,
)
from .geometry import (
    DegenerateInput,
    Left,
    NoWitnessFound,
    Point,
    RationalPoint,
    Right,
    SideDecision,
    decide_side,
    orientation_real,
    three_points,
)
from .inputs import read_trace
from .knowledge import (
    Assumed,
    Falsified,
    KnowledgeState,
    LeqEvidence,
    Refl,
    ReflFalsified,
    Step,
    UnsoundWitness,
    blame,
    check_leq,
    empty_state,
    extend,
    is_sound,
)
from .least import (
    Auditor,
    Challenge,
    ForcedChallengeDenied,
    LeastCandidate,
    LearnOutcome,
    NullAuditor,
    RestartBudgetExceeded,
    ScriptedAuditor,
    learn_least,
    least_candidate,
)
from .oracle import (
    OracleAuditor,
    PathMismatch,
    ReplayVerdict,
    TieDetected,
    exact_convex_check,
    exact_min_index,
    exact_orientation,
    replay_paths,
    separation_from_gap,
)
from .reals import (
    InvalidNesting,
    RealNum,
    RealRegistry,
    find_strict_witness,
    least_witness,
    op_at,
)
from .trace import TraceEvent, TraceLog, write_trace

__version__ = "0.1.0"
