"""Knowledge states and evidence chains for guessed order comparisons.

A knowledge state is a finite partial map over a sequence of reals
``r_0 .. r_n``, from an ordered pair of positions ``(i, j)`` in that
sequence to a witness precision ``k``.  An entry records a
previously discovered counterexample: the claim ``r_i <= r_j`` was
refuted because ``op_at(r_j, r_i, k)`` holds.  A state is sound when
every stored witness actually verifies.  A state is sealed: its entries
are a read-only view of a private copy taken at construction, and
:func:`extend`, which verifies the new witness before it adds it, is
the only way to grow one.  A sound state therefore only ever grows
into a sound state, and a run needs to re-verify only the state it
started from; :func:`~realearn.least.learn_least` does so, and checks
the state it ends with, in debug builds.

Comparisons that the state knows nothing about
(:meth:`KnowledgeState.get` answers None) are answered by assumption,
and each assumption is backed by an evidence value so that later
refutations can be traced back to the assumption that caused them.
Evidence chains are linear:

* ``Refl(i)`` claims ``r_i <= r_i`` and can never be refuted.
* ``Assumed(i, j)`` claims ``r_i <= r_j`` with no justification.
* ``Step(w, rest, subject)`` claims ``r_subject <= rest.target`` by
  chaining the strict fact ``op_at(r_subject, r_rest.subject, w)`` in
  front of ``rest``.

When a chained claim is refuted at precision ``p``, :func:`blame`
pushes the counterexample down the chain, taking ``max`` with each
strict witness along the way, and lands on the terminal assumption.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import _Record
from .reals import RealNum, op_at

Pair = Tuple[int, int]


class UnsoundWitness(ValueError):
    """A knowledge-state witness does not verify: an extension carried
    one, or a state handed to a run holds one."""


class ReflFalsified(RuntimeError):
    """A reflexive claim was reported false: internal contradiction."""


class Refl(_Record):
    """Evidence for r_i <= r_i."""

    __slots__ = ("_i",)
    subject = target = property(attrgetter("_i"))


class Assumed(_Record):
    """Unjustified assumption of r_i <= r_j, open to refutation."""

    __slots__ = ("_i", "_j")
    subject = property(attrgetter("_i"))
    target = property(attrgetter("_j"))


class Step:
    """Chained evidence: r_subject < r_rest.subject (at ``witness``),
    and ``rest`` claims r_rest.subject <= r_rest.target.

    Equality, hashing and repr walk the chain in a loop, because chains
    can be longer than the stack.  Every ``Step`` built runs the class
    attribute ``__post_init__``, which checks ``rest``.
    """

    __slots__ = ("_witness", "_rest", "_subject")

    def __init__(self, witness: int, rest: "LeqEvidence", subject: int) -> None:
        self._witness = witness
        self._rest = rest
        self._subject = subject
        self.__post_init__()

    witness = property(attrgetter("_witness"))
    rest = property(attrgetter("_rest"))
    subject = property(attrgetter("_subject"))

    def __post_init__(self) -> None:
        if not isinstance(self.rest, (Refl, Assumed, Step)):
            raise TypeError(f"rest must be evidence, got {self.rest!r}")

    def _chain(self) -> Tuple[List["Step"], "LeqEvidence"]:
        """The steps from this one inwards, and the base they rest on."""
        steps: List[Step] = []
        ev: LeqEvidence = self
        while isinstance(ev, Step):
            steps.append(ev)
            ev = ev.rest
        return steps, ev

    def _fields(self) -> tuple:
        steps, base = self._chain()
        return base, tuple((s.witness, s.subject) for s in steps)

    @property
    def target(self) -> int:
        return self._chain()[1].target

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Step):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        steps, base = self._chain()
        return ("".join(f"Step(witness={s.witness!r}, rest=" for s in steps)
                + repr(base)
                + "".join(f", subject={s.subject!r})" for s in reversed(steps)))


LeqEvidence = Refl | Assumed | Step


class KnowledgeState:
    """An immutable, sealed record of everything learned so far about
    the reals ``r_0 .. r_n``.

    ``reals[i]`` is r_i: a :class:`~realearn.reals.RealRegistry` or any
    other sequence of reals serves.  ``entries[(i, j)] = k`` records
    that ``op_at(r_j, r_i, k)`` holds, refuting the claim
    ``r_i <= r_j``.  ``entries`` is a read-only mapping over a private
    copy of the dict passed in, so changing that dict afterwards does
    not change the state, and assigning to or deleting from ``entries``
    raises ``TypeError``.  :func:`extend` returns a new state and never
    mutates the entries.  A state built directly from a dict is not
    verified; :func:`is_sound` checks one.  States compare equal when
    their reals and entries do.

    The state's chain is its strict steps ``(witness, j)`` from 0 over
    all its indices: from i = 0, the entry ``(i, j)`` with the least
    ``j > i``, then the same from j.  It is walked, through an index
    ``i -> (witness, j)`` of those entries, when first needed, and
    :meth:`strict_steps` hands out its prefixes.  :func:`extend` hands
    the index and the chain to the new state: it updates the index in
    place, and the parent rebuilds its own if it is asked again; the
    chain is never changed, so parent and child may share it.  So a
    state must not be extended in one thread while another thread
    extends it or asks it for strict steps.
    """

    __slots__ = ("_reals", "_entries", "_view", "_snapshot_json",
                 "_successors", "_chain")

    def __init__(self, reals: Sequence[RealNum],
                 entries: Mapping[Pair, int] = MappingProxyType({})) -> None:
        self._seal(reals, dict(entries), None, None)

    def _seal(self, reals: Sequence[RealNum], entries: Dict[Pair, int],
              successors: Optional[Dict[int, Tuple[int, int]]],
              chain: Optional[List[Tuple[int, int]]]) -> None:
        self._reals = reals
        self._entries = entries
        self._view = MappingProxyType(entries)
        self._snapshot_json: Optional[str] = None
        self._successors = successors
        self._chain = chain

    reals = property(attrgetter("_reals"))
    entries = property(attrgetter("_view"))

    def __copy__(self) -> "KnowledgeState":
        # a state is immutable, and a shallow copy would share its index
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not KnowledgeState:
            return NotImplemented
        return (self._reals, self._entries) == (other._reals, other._entries)

    def __repr__(self) -> str:
        return f"KnowledgeState(reals={self._reals!r}, entries={self._view!r})"

    @property
    def size(self) -> int:
        return len(self._entries)

    def get(self, i: int, j: int) -> Optional[int]:
        """The stored witness refuting ``r_i <= r_j``, or None."""
        return self._entries.get((i, j))

    def _index(self) -> Dict[int, Tuple[int, int]]:
        if self._successors is None:
            # pairs in descending order, so each i keeps its least j
            self._successors = {
                i: (w, j) for (i, j), w in sorted(self._entries.items(),
                                                  reverse=True) if j > i}
        return self._successors

    def strict_steps(self, n: int) -> List[Tuple[int, int]]:
        """The strict steps ``(witness, j)`` of a least-element pass over
        ``0..n``: from i = 0, the stored entry ``(i, j)`` with the least
        ``j > i``, then the same from j, while j <= n.  That is the
        prefix of the state's chain whose subjects are at most n, found
        by bisection: the chain itself when it ends by n, else a new
        list.  Either way the list never changes, and must not be
        changed."""
        if self._chain is None:
            self._chain = _walk(self._index(), [], 0)
        cut = bisect_right(self._chain, n, key=itemgetter(1))
        return self._chain if cut == len(self._chain) else self._chain[:cut]

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, w) for (i, j), w in sorted(self._entries.items())]

    @property
    def snapshot(self) -> list[dict]:
        """The trace view of the state: ``{"i", "j", "witness"}`` dicts
        sorted by pair, a new list on every read."""
        return [{"i": i, "j": j, "witness": w}
                for i, j, w in self.sorted_entries()]

    @property
    def snapshot_json(self) -> str:
        """:attr:`snapshot` as the trace writes it: sorted keys, no
        spaces.  It is written straight from the entries, once per
        state, and shared by every trace line that records the state."""
        if self._snapshot_json is None:
            self._snapshot_json = "[" + ",".join(
                f'{{"i":{i},"j":{j},"witness":{w}}}'
                for i, j, w in self.sorted_entries()) + "]"
        return self._snapshot_json


def _walk(successors: Dict[int, Tuple[int, int]],
          steps: List[Tuple[int, int]], i: int) -> List[Tuple[int, int]]:
    """``steps`` extended, in place, by the strict steps from i on."""
    step = successors.get(i)
    while step is not None:
        steps.append(step)
        step = successors.get(step[1])
    return steps


def empty_state(reals: Sequence[RealNum]) -> KnowledgeState:
    """The state that knows nothing about the reals ``r_0 .. r_n``."""
    return KnowledgeState(reals, {})


def is_sound(state: KnowledgeState) -> bool:
    """Full re-verification of every stored witness."""
    return all(
        op_at(state.reals[j], state.reals[i], k)
        for (i, j), k in state.entries.items()
    )


def extend(state: KnowledgeState, i: int, j: int, k: int) -> KnowledgeState:
    """Add the counterexample ``(i, j) -> k``, verifying it first.

    Extending with an already known pair is a no-op that keeps the
    first witness.  A witness that does not verify raises
    :class:`UnsoundWitness`: that is a programming error in the caller,
    never a learnable fact.  The new state takes over ``state``'s
    successor index and shares its chain, unless ``(i, j)`` becomes the
    successor of 0 or of a subject on the chain: then the new state's
    chain is a new list, cut after i and walked on from j.
    """
    if (i, j) in state.entries:
        return state
    if not op_at(state.reals[j], state.reals[i], k):
        raise UnsoundWitness(f"op_at(r_{j}, r_{i}, {k}) is false")
    successors = state._index()
    state._successors = None
    chain = state._chain
    if j > i and (i not in successors or j < successors[i][1]):
        successors[i] = (k, j)
        if chain is not None:
            cut = bisect_right(chain, i, key=itemgetter(1))
            if i == 0 or cut and chain[cut - 1][1] == i:
                chain = _walk(successors, chain[:cut], i)
    child = KnowledgeState.__new__(KnowledgeState)
    child._seal(state.reals, {**state._entries, (i, j): k}, successors, chain)
    return child


def blame(ev: LeqEvidence, p: int) -> Tuple[Pair, int]:
    """Trace a counterexample at precision p back to its assumption.

    Folds ``max`` over the strict witnesses along the chain, so the
    returned precision is a genuine counterexample for the terminal
    assumption whenever p is one for the whole claim.
    """
    while isinstance(ev, Step):
        p = max(p, ev.witness)
        ev = ev.rest
    if isinstance(ev, Assumed):
        return ((ev.i, ev.j), p)
    raise ReflFalsified(f"reflexive claim on index {ev.i} reported false")


class Falsified(_Record):
    """Outcome of a failed check: which pair to learn, at what witness."""

    __slots__ = ("_pair", "_witness")


def check_leq(reals: Sequence[RealNum], ev: LeqEvidence,
              p: int) -> Optional[Falsified]:
    """Test one instance of the claim carried by ``ev`` about the reals
    ``r_0 .. r_n`` at precision p.

    Evaluates ``op_at(r_target, r_subject, p)``: False means the
    instance holds and None is returned; True refutes the claim, and
    the blame fold converts the refutation into a state extension.
    """
    a, b = ev.subject, ev.target
    if not op_at(reals[b], reals[a], p):
        return None
    pair, witness = blame(ev, p)
    return Falsified(pair, witness)
