"""Command-line interface.

Subcommands::

    realearn least INPUT    learn the least of the document's reals
    realearn convex INPUT   construct a bounding angle for the points
    realearn check RESULT INPUT   audit a convex result file
    realearn tree TRACE...  replay recorded traces against the tree

Exit codes: 0 success, 1 input error (a usage error is one), 2 restart
budget exhausted, 3 degenerate geometry, 4 verification failure.  They
are decided in one place, the :data:`FAILURES` table: a command returns
0 (``tree`` returns 4 for a replay that is not ok) or raises, and
:func:`main` maps the exception to its exit code and one-line stderr
message.  A ``--trace`` file is opened after the input checks, written
as the run records each event and closed when it ends, so exit 2-4
leaves the events recorded; exit 1 removes it.  No output may name an
input, the document or a ``least`` challenge script, or the other
output.  ``least`` and ``convex`` share the flags ``--kmax``,
``--max-restarts`` and ``--trace``, and every count a flag, the
environment or a result file gives is checked by :func:`_count`.  The
table's exceptions live in :mod:`realearn.errors`, which imports
nothing, and each ``cmd_*`` imports the modules it runs when it runs,
so a process loads only what its subcommand needs: ``tree`` loads only
the trace reader and :mod:`realearn.replay`, ``least`` no convex,
geometry or replay module, ``convex`` no oracle, and ``check`` no
least, convex or replay module: it rebuilds the recorded state with
:mod:`realearn.knowledge`, which runs no learner.  The ``--kmax``
default of ``least`` and ``convex`` is 256 and can be overridden by the
``REALEARN_KMAX`` environment variable; an explicit flag wins over the
environment.  ``check`` never reads the variable: its kmax is its
``--kmax`` or the one its result file records.  Every kmax, from the
flag, the environment or a ``check`` result file, is at most
:data:`KMAX_CEILING` = 2^20: a probe at precision k works on integers
about k bits long, so with a larger budget a degenerate input could run
for minutes or more before it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from decimal import Decimal
from typing import NoReturn, Optional, Sequence

from .errors import (
    CertificateFailure,
    DegenerateInput,
    ForcedChallengeDenied,
    InputError,
    PathMismatch,
    RestartBudgetExceeded,
)
from .trace import NullLog, TraceFile, _dumps, read_trace

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4

DEFAULT_KMAX = 256
KMAX_CEILING = 2 ** 20
KMAX_ENV = "REALEARN_KMAX"

# (exception class, exit code, stderr prefix): the first row whose class
# matches decides the exit code, and the line printed is "prefix: exc".
FAILURES = (
    (InputError, EXIT_INPUT, "input error"),
    (OSError, EXIT_INPUT, "input error"),
    (RestartBudgetExceeded, EXIT_BUDGET, "restart budget exhausted"),
    (DegenerateInput, EXIT_DEGENERATE, "degenerate input"),
    (ForcedChallengeDenied, EXIT_VERIFY, "verification failed: forced challenge"),
    (CertificateFailure, EXIT_VERIFY, "verification failed"),
    (PathMismatch, EXIT_VERIFY, "replay failed"),
)


def _count(source: str, value, kmax: bool = False) -> int:
    """``value`` if it is an integer >= 0, and at most
    :data:`KMAX_CEILING` for a ``kmax``, else an input error naming
    ``source``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{source} must be an integer, got {value!r}")
    if value < 0:
        raise InputError(f"{source} must be >= 0, got {value}")
    if kmax and value > KMAX_CEILING:
        raise InputError(
            f"{source} must be at most {KMAX_CEILING} (2^20), got {value}")
    return value


def _resolve_kmax(flag: Optional[int]) -> int:
    if flag is not None:
        return _count("--kmax", flag, kmax=True)
    raw = os.environ.get(KMAX_ENV, DEFAULT_KMAX)
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{KMAX_ENV} must be an integer, got {raw!r}")
    return _count(KMAX_ENV, value, kmax=True)


def _distinct(*paths: Optional[str]) -> None:
    """An input error if two of the paths given name one file: an output
    would overwrite the input or interleave with the other output."""
    real = [os.path.realpath(path) for path in paths if path]
    if len(set(real)) < len(real):
        raise InputError("the input and the output files must differ, got "
                         + ", ".join(path for path in paths if path))


def _run_flags(args, *outputs: Optional[str]) -> tuple[int, Optional[int]]:
    """The ``--kmax`` and ``--max-restarts`` of a ``least`` or ``convex``
    run, checked in this order, after :func:`_distinct` has checked the
    input, the trace and ``outputs``."""
    _distinct(args.input, args.trace, *outputs)
    kmax = _resolve_kmax(args.kmax)
    max_restarts = (None if args.max_restarts is None
                    else _count("--max-restarts", args.max_restarts))
    return kmax, max_restarts


@contextmanager
def _trace_log(path: Optional[str]):
    """A :class:`NullLog` without a path, else a :class:`TraceFile` on
    ``path``, which an input error removes if it is a regular file."""
    if not path:
        yield NullLog()
        return
    handle = open(path, "w", encoding="utf-8")
    try:
        with handle:
            yield TraceFile(handle)
    except (InputError, OSError):
        if os.path.isfile(path):
            os.remove(path)
        raise


def _document(path: str, what: str):
    """The input document at ``path``, which must hold some ``what``,
    ``"reals"`` or ``"points"``."""
    from .inputs import load_document

    document = load_document(path)
    if not getattr(document, what):
        raise InputError(f"{path}: no {what} in document")
    return document


def cmd_least(args) -> int:
    from .inputs import build_reals, load_script, real_limits
    from .knowledge import empty_state
    from .least import NullAuditor, ScriptedAuditor, learn_least

    kmax, max_restarts = _run_flags(args)
    document = _document(args.input, "reals")
    reals = build_reals(document)
    n = len(document.reals) - 1
    if args.auditor == "none":
        auditor = NullAuditor()
    elif args.auditor == "oracle":
        from .oracle import OracleAuditor, TieDetected

        try:
            auditor = OracleAuditor(reals, real_limits(document))
        except TieDetected as exc:
            raise InputError(f"oracle auditor: {exc}")
    elif args.auditor.startswith("script:"):
        path = args.auditor[len("script:"):]
        _distinct(path, args.trace)
        script = load_script(path)
        for ch in script:
            if not 0 <= ch.j <= n:
                raise InputError(f"challenge j {ch.j} is outside 0..{n}")
            if ch.precision > kmax:
                raise InputError(
                    f"challenge precision {ch.precision} exceeds kmax {kmax}")
        auditor = ScriptedAuditor(script)
    else:
        raise InputError(f"unknown auditor {args.auditor!r}")
    with _trace_log(args.trace) as log:
        outcome = learn_least(n, auditor, empty_state(reals), max_restarts,
                              log)
    print(f"candidate: {outcome.candidate.candidate}")
    print(f"restarts: {outcome.restarts}")
    print("state:", outcome.state.snapshot_json)
    return EXIT_OK


def _certificate_obj(certificate) -> dict:
    return {
        "left": [[d, w] for d, w in sorted(certificate.left.items())],
        "right": [[d, w] for d, w in sorted(certificate.right.items())],
        "c_left": certificate.c_left,
        "b_right": certificate.b_right,
    }


def cmd_convex(args) -> int:
    from .convex import TooFewPoints, convex_angle
    from .inputs import build_points

    kmax, max_restarts = _run_flags(args, args.result)
    points = build_points(_document(args.input, "points"))
    with _trace_log(args.trace) as log:
        try:
            result = convex_angle(points, k_max=kmax,
                                  max_restarts=max_restarts, trace=log)
        except TooFewPoints as exc:
            raise InputError(f"{args.input}: {exc}")
        # an unwritable trace fails here, before the result is written
        log.flush()
        if args.result:
            record = {
                "type": "convex-result",
                "a": result.a,
                "b": result.b,
                "c": result.c,
                "kmax": kmax,
                "restarts": result.restarts,
                "certificate": _certificate_obj(result.certificate),
                "state": result.state.snapshot,
            }
            with open(args.result, "w", encoding="utf-8") as handle:
                handle.write(_dumps(record))
                handle.write("\n")
    cert = result.certificate
    print(f"apex: {result.a}")
    print(f"rays: {result.b} {result.c}")
    print(f"restarts: {result.restarts}")
    print("max-witness:", max(cert.c_left, cert.b_right, *cert.left.values(),
                              *cert.right.values()))
    print("state:", result.state.snapshot_json)
    return EXIT_OK


def cmd_check(args) -> int:
    from .geometry import verify_bounding
    from .inputs import build_points, rational_points
    from .knowledge import UnsoundWitness, empty_state, extend
    from .oracle import exact_convex_check

    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            record = json.loads(handle.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"{args.result}: cannot read result: {exc}")
    if not isinstance(record, dict) or record.get("type") != "convex-result":
        raise InputError(f"{args.result}: not a convex result file")
    document = _document(args.input, "points")
    points = build_points(document)
    a, b, c = record.get("a"), record.get("b"), record.get("c")
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in (a, b, c)):
        raise InputError(f"{args.result}: a, b, c must be integers")
    kmax = (_count(f"{args.result}: kmax", record.get("kmax", DEFAULT_KMAX),
                   kmax=True)
            if args.kmax is None else _resolve_kmax(args.kmax))
    # the recorded state and restarts, each audited when present: first
    # that every entry names two points and a witness within kmax, then
    # that each is a pair a run learns, (candidate, j) with j above the
    # candidate, and that extend, which keeps a pair once and verifies
    # its witness, grows the state by it; then that there is one entry
    # per restart and that the apex ends the state's chain of strict steps
    state = record.get("state")
    if state is not None and not isinstance(state, list):
        raise InputError(f"{args.result}: state must be a list of entries")
    entries = [tuple(entry.get(key) if isinstance(entry, dict) else None
                     for key in ("i", "j", "witness"))
               for entry in state or ()]
    for number, (i, j, w) in enumerate(entries):
        if not (all(type(v) is int for v in (i, j, w))
                and i in range(len(points)) and j in range(len(points))
                and w in range(kmax + 1)):
            raise InputError(
                f"{args.result}: state entry {number} must name two points "
                f"0..{len(points) - 1} and a witness 0..{kmax}")
    learned = empty_state([p.y for p in points])
    for i, j, w in entries:
        if j <= i:
            raise CertificateFailure(
                f"state entry ({i}, {j}): j is not above i, so no run blames it")
        try:
            grown = extend(learned, i, j, w)
        except UnsoundWitness:
            raise CertificateFailure(
                f"state entry ({i}, {j}): op_at(y_{j}, y_{i}, {w}) is false"
            ) from None
        if grown is learned:
            raise CertificateFailure(
                f"state entry ({i}, {j}) repeats an earlier entry")
        learned = grown
    if record.get("restarts") is not None:
        restarts = _count(f"{args.result}: restarts", record["restarts"])
        if state is not None and restarts != len(entries):
            raise CertificateFailure(f"restarts {restarts} is not the "
                                     f"state's entry count {len(entries)}")
    steps = learned.strict_steps(len(points) - 1)
    if state is not None and a != (candidate := steps[-1][1] if steps else 0):
        raise CertificateFailure(f"apex {a} is not the least-element "
                                 f"candidate {candidate} of the recorded state")
    derived = verify_bounding(points, a, b, c, k_max=kmax)
    # == takes a stored false or 0.0 for the 0 a run writes, so an equal
    # certificate must also have the same JSON text
    stored, certificate = record.get("certificate"), _certificate_obj(derived)
    if stored is not None and (
            stored != certificate or _dumps(stored) != _dumps(certificate)):
        raise CertificateFailure(
            "stored certificate does not match re-derived witnesses")
    if not exact_convex_check(rational_points(document), a, b, c):
        raise CertificateFailure("exact bounding condition is false "
                                 f"for apex {a}, rays {b}, {c}")
    print(f"ok: apex {a}, rays {b} {c}, "
          f"{len(derived.left)} bounded points re-verified")
    return EXIT_OK


def cmd_tree(args) -> int:
    from .replay import replay_paths

    n = None if args.n is None else _count("--n", args.n)
    runs = [read_trace(path) for path in args.traces]
    verdict = replay_paths(runs, n=n)
    print(f"n: {verdict.n}")
    for path, run in zip(args.traces, verdict.runs):
        print(f"run: {path}")
        # str(Decimal) prints ranks past the 4300-digit int str() limit
        leaves = " ".join(str(Decimal(rank)) for rank in run.leaf_ranks)
        print(f"  leaves: {leaves}")
        print(f"  candidates: {' '.join(map(str, run.leaf_candidates))}")
        print(f"  restarts: {run.restarts}")
        print(f"  progress: {'ok' if run.progress_ok else 'VIOLATED'}")
        print(f"  unique: {'ok' if run.unique_ok else 'VIOLATED'}")
        print(f"  bound: {'ok' if run.bound_ok else 'VIOLATED'}")
    return EXIT_OK if verdict.ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an :class:`InputError`, so that it too
    is one line on stderr and exit 1."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="realearn",
        description="Exact reals, least-element learning, convex angles.")
    sub = parser.add_subparsers(dest="command", required=True)

    runs = {}
    for name, summary, budget, func in (
            ("least", "learn the least element",
             "precision ceiling for scripted challenges", cmd_least),
            ("convex", "construct a bounding angle",
             "precision budget for side decisions", cmd_convex)):
        run = runs[name] = sub.add_parser(name, help=summary)
        run.add_argument("input")
        run.add_argument("--kmax", type=int, default=None,
                         help=f"{budget} "
                              "(default 256, or REALEARN_KMAX; at most 2^20)")
        run.add_argument("--max-restarts", type=int, default=None,
                         help="restart budget (default 2^n)")
        run.add_argument("--trace", default=None,
                         help="write the event trace to this file")
        run.set_defaults(func=func)
    runs["least"].add_argument("--auditor", default="none",
                               help="none | oracle | script:<path>")
    runs["convex"].add_argument("--result", default=None,
                                help="write a machine-readable result record")

    check = sub.add_parser("check", help="audit a convex result file")
    check.add_argument("result")
    check.add_argument("input")
    check.add_argument("--kmax", type=int, default=None,
                       help="re-verification budget, at most 2^20 "
                            "(default: the kmax recorded in the result "
                            "file)")
    check.set_defaults(func=cmd_check)

    tree = sub.add_parser("tree", help="replay traces against the tree")
    tree.add_argument("traces", nargs="+")
    tree.add_argument("--n", type=int, default=None,
                      help="decision path length; inferred from the "
                           "first trace when omitted")
    tree.set_defaults(func=cmd_tree)

    return parser


_CAUGHT = tuple(cls for cls, _, _ in FAILURES)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and turn a failure into its exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CAUGHT as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
