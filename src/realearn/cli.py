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
leaves the events recorded; exit 1 removes it.  No output may name the
input or the other output.  The table's exceptions live in
:mod:`realearn.errors`, which imports nothing, and each ``cmd_*``
imports the modules it runs when it runs, so a process loads only what
its subcommand needs: ``tree`` loads only the trace reader and
:mod:`realearn.replay`, ``least`` no convex, geometry or replay module,
``convex`` no oracle, and ``check`` no learner (no knowledge, least or
convex module).  The ``--kmax`` default is 256 and can be overridden by
the ``REALEARN_KMAX`` environment variable; an explicit flag wins over
the environment.  Every kmax, from the flag, the environment or a
``check`` result file, is at most :data:`KMAX_CEILING` = 2^20: a probe
at precision k works on integers about k bits long, so with a larger
budget a degenerate input could run for minutes or more before it ends.
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
from .trace import NullLog, TraceFile, read_trace

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


def _nonnegative(source: str, value) -> int:
    """``value`` if it is an integer >= 0, else an input error naming
    ``source``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{source} must be an integer, got {value!r}")
    if value < 0:
        raise InputError(f"{source} must be >= 0, got {value}")
    return value


def _kmax(source: str, value) -> int:
    """``value`` if it is an integer in ``0..KMAX_CEILING``, else an
    input error naming ``source``."""
    if _nonnegative(source, value) > KMAX_CEILING:
        raise InputError(
            f"{source} must be at most {KMAX_CEILING} (2^20), got {value}")
    return value


def _resolve_kmax(flag: Optional[int]) -> int:
    if flag is not None:
        return _kmax("--kmax", flag)
    raw = os.environ.get(KMAX_ENV)
    if raw is None:
        return DEFAULT_KMAX
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{KMAX_ENV} must be an integer, got {raw!r}")
    return _kmax(KMAX_ENV, value)


def _optional_nonnegative(source: str, flag: Optional[int]) -> Optional[int]:
    return None if flag is None else _nonnegative(source, flag)


def _distinct(*paths: Optional[str]) -> None:
    """An input error if two of the paths given name one file: an output
    would overwrite the input or interleave with the other output."""
    real = [os.path.realpath(path) for path in paths if path]
    if len(set(real)) < len(real):
        raise InputError("the input and the output files must differ, got "
                         + ", ".join(path for path in paths if path))


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


def _print_state(state) -> None:
    print("state:", state.snapshot_json)


def cmd_least(args) -> int:
    from .inputs import build_reals, load_document, load_script, real_limits
    from .knowledge import empty_state
    from .least import NullAuditor, ScriptedAuditor, learn_least

    _distinct(args.input, args.trace)
    kmax = _resolve_kmax(args.kmax)
    max_restarts = _optional_nonnegative("--max-restarts", args.max_restarts)
    document = load_document(args.input)
    if not document.reals:
        raise InputError(f"{args.input}: no reals in document")
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
        script = load_script(args.auditor[len("script:"):])
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
    _print_state(outcome.state)
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
    from .inputs import build_points, load_document

    _distinct(args.input, args.trace, args.result)
    kmax = _resolve_kmax(args.kmax)
    max_restarts = _optional_nonnegative("--max-restarts", args.max_restarts)
    document = load_document(args.input)
    if not document.points:
        raise InputError(f"{args.input}: no points in document")
    points = build_points(document)
    with _trace_log(args.trace) as log:
        try:
            result = convex_angle(points, k_max=kmax,
                                  max_restarts=max_restarts, trace=log)
        except TooFewPoints as exc:
            raise InputError(f"{args.input}: {exc}")
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
                handle.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")))
                handle.write("\n")
    witnesses = [result.certificate.c_left, result.certificate.b_right]
    witnesses.extend(result.certificate.left.values())
    witnesses.extend(result.certificate.right.values())
    print(f"apex: {result.a}")
    print(f"rays: {result.b} {result.c}")
    print(f"restarts: {result.restarts}")
    print(f"max-witness: {max(witnesses)}")
    _print_state(result.state)
    return EXIT_OK


def cmd_check(args) -> int:
    from .geometry import verify_bounding
    from .inputs import build_points, load_document, rational_points
    from .oracle import exact_convex_check

    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            record = json.loads(handle.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"{args.result}: cannot read result: {exc}")
    if not isinstance(record, dict) or record.get("type") != "convex-result":
        raise InputError(f"{args.result}: not a convex result file")
    document = load_document(args.input)
    if not document.points:
        raise InputError(f"{args.input}: no points in document")
    points = build_points(document)
    a, b, c = record.get("a"), record.get("b"), record.get("c")
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in (a, b, c)):
        raise InputError(f"{args.result}: a, b, c must be integers")
    kmax = (_kmax(f"{args.result}: kmax", record.get("kmax", DEFAULT_KMAX))
            if args.kmax is None else _resolve_kmax(args.kmax))
    derived = verify_bounding(points, a, b, c, k_max=kmax)
    stored = record.get("certificate")
    if stored is not None and stored != _certificate_obj(derived):
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

    n = _optional_nonnegative("--n", args.n)
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

    least = sub.add_parser("least", help="learn the least element")
    least.add_argument("input")
    least.add_argument("--kmax", type=int, default=None,
                       help="precision ceiling for scripted challenges "
                            "(default 256, or REALEARN_KMAX; at most 2^20)")
    least.add_argument("--max-restarts", type=int, default=None,
                       help="restart budget (default 2^n)")
    least.add_argument("--auditor", default="none",
                       help="none | oracle | script:<path>")
    least.add_argument("--trace", default=None,
                       help="write the event trace to this file")
    least.set_defaults(func=cmd_least)

    convex = sub.add_parser("convex", help="construct a bounding angle")
    convex.add_argument("input")
    convex.add_argument("--kmax", type=int, default=None,
                        help="precision budget for side decisions "
                             "(default 256, or REALEARN_KMAX; at most 2^20)")
    convex.add_argument("--max-restarts", type=int, default=None,
                        help="restart budget (default 2^n)")
    convex.add_argument("--trace", default=None,
                        help="write the event trace to this file")
    convex.add_argument("--result", default=None,
                        help="write a machine-readable result record")
    convex.set_defaults(func=cmd_convex)

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
