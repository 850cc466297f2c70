"""In-memory spans and counters around realearn's public functions.

The wrappers are installed from the benchmark, never inside the
program: each one replaces a function on every module that looks the
name up, and ``uninstall`` puts the originals back.  Coarse boundaries
(one op, one construction, one least pass, ...) are kept as spans;
hot functions are aggregated as a call count, a total time and a self
time (time minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (wrapped name, attribute, modules that look it up, kept as a span)
_FUNCTIONS = [
    ("reals.op_at", "op_at", ("reals", "geometry", "knowledge"), False),
    ("reals.find_strict_witness", "find_strict_witness",
     ("reals", "geometry", "oracle"), False),
    ("geometry.orientation_real", "orientation_real", ("geometry", "convex"), False),
    ("geometry.decide_side", "decide_side", ("geometry", "convex"), False),
    ("geometry.three_points", "three_points", ("geometry", "convex"), False),
    ("knowledge.extend", "extend", ("knowledge", "least", "convex"), False),
    ("knowledge.blame", "blame", ("knowledge", "least", "convex"), False),
    ("least.least_candidate", "least_candidate", ("least", "convex"), True),
    ("least.learn_least", "learn_least", ("least",), True),
    ("convex.convex_angle", "convex_angle", ("convex",), True),
    ("convex.verify_bounding", "verify_bounding", ("convex",), True),
    ("inputs.load_document", "load_document", ("inputs",), True),
]

LAYERS = ("reals", "geometry", "least", "knowledge", "convex", "oracle", "inputs")


class Tracer:
    """Spans and per-function aggregates for one traced run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.witnesses: List[int] = []
        self.max_k = -1
        self.op_id: Optional[int] = None
        self._next_span = 0
        # frames: [name, start, child seconds, nearest span id,
        #          parent span id, kept as a span]
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str, coarse: bool) -> list:
        parent_span = self._stack[-1][3] if self._stack else None
        span_id = parent_span
        if coarse:
            span_id = self._next_span
            self._next_span += 1
        frame = [name, perf_counter(), 0.0, span_id, parent_span, coarse]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child, span_id, parent_span, coarse = frame
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if coarse:
            self.spans.append((span_id, name, start, end, parent_span, self.op_id))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a coarse span."""
        frame = self._enter(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def parent_name(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, name: str, fn: Callable, coarse: bool) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, coarse)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _wrap_decide_side(self, fn: Callable) -> Callable:
        tracer = self
        timed = self._wrap("geometry.decide_side", fn, False)

        def decide_side(p, q, r, k_max, *rest, **kwargs):
            if tracer.parent_name() == "convex.convex_angle":
                tracer.counts["convex.side_decided"] += 1
            try:
                decision = timed(p, q, r, k_max, *rest, **kwargs)
            except Exception:
                tracer.counts["geometry.levels"] += k_max + 1
                raise
            tracer.witnesses.append(decision.witness)
            tracer.counts["geometry.levels"] += decision.witness + 1
            return decision

        return decide_side

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap the public functions of each layer; modules by short name."""
        for name, attr, owners, coarse in _FUNCTIONS:
            original = getattr(modules[owners[0]], attr)
            if attr == "decide_side":
                wrapped = self._wrap_decide_side(original)
            else:
                wrapped = self._wrap(name, original, coarse)
            for owner in owners:
                self._patch(modules[owner], attr, wrapped)

        tracer = self
        auditor = modules["oracle"].OracleAuditor
        self._patch(auditor, "challenge",
                    self._wrap("oracle.challenge", auditor.challenge, True))

        registry = modules["reals"].RealRegistry
        register = registry.register

        def counted_register(reg, gen):
            tracer.counts["reals.registered"] += 1

            def counted_gen(k):
                tracer.counts["reals.gen_evals"] += 1
                if k > tracer.max_k:
                    tracer.max_k = k
                return gen(k)

            return register(reg, counted_gen)

        self._patch(registry, "register", counted_register)

        step = modules["knowledge"].Step
        post_init = step.__post_init__

        def counted_post_init(instance):
            tracer.counts["least.steps_built"] += 1
            post_init(instance)

        self._patch(step, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_ms(self, name: str) -> float:
        return self.stats[name][1] * 1e3 if name in self.stats else 0.0

    def self_ms(self, name: str) -> float:
        return self.stats[name][2] * 1e3 if name in self.stats else 0.0

    def layer_self_ms(self, layer: str) -> float:
        return sum(stat[2] for name, stat in self.stats.items()
                   if name.split(".")[0] == layer) * 1e3

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id}) + "\n")
