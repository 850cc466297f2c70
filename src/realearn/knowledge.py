"""Knowledge states and evidence chains for guessed order comparisons.

A knowledge state is a finite partial map over a sequence of reals
``r_0 .. r_n``, from an ordered pair of positions ``(i, j)`` in that
sequence to a witness precision ``k``.  An entry records a
previously discovered counterexample: the claim ``r_i <= r_j`` was
refuted because ``op_at(r_j, r_i, k)`` holds.  A state is sound when
every stored witness actually verifies.  A state is sealed: its entries
are the first ``size`` items of an insertion-ordered dict that it
shares with the states it was extended from and into, a prefix that no
later extension changes.  The newest state of such a lineage owns the
dict and the lineage's successor index, and :func:`extend`, which
verifies the new witness before it adds it, is the only way to grow
one; extending any other state starts a new lineage.  A sound state
therefore only ever grows into a sound state, and a run needs to
re-verify only the state it started from;
:func:`~realearn.least.learn_least` does so, and checks the state it
ends with, in debug builds.

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
from itertools import islice
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    ``r_i <= r_j``.  A state built from a dict copies it, so changing
    that dict afterwards does not change the state.  A state built
    directly from a dict is not verified; :func:`is_sound` checks one.
    States compare equal when their reals and entries do.

    A lineage of states shares one insertion-ordered dict and one
    successor index ``i -> (witness, j)``, of the entries ``(i, j)``
    with the least ``j > i``.  A state holds its ``size``: its entries
    are the dict's first ``size`` items.  The newest state of the
    lineage, whose size is the dict's length, owns the dict and the
    index, and :func:`extend` grows both in place; any other state reads
    its own prefix, and extending it starts a new lineage with a new
    dict and a new index built from that prefix.  So no state's
    entries ever change.  ``entries`` is a read-only mapping over a new
    copy of the prefix on every read, so it never grows, and assigning
    to or deleting from it raises ``TypeError``.  A shallow copy of a
    state is one more state of the same lineage.

    The state's chain is its strict steps ``(witness, j)`` from 0 over
    all its indices: from i = 0, the entry ``(i, j)`` with the least
    ``j > i``, then the same from j.  A state holds a chain list and
    its chain's length: its chain is the list's first ``length``
    items, which, like its entries, no later extension changes.  A
    state built from a dict walks its chain through the index once.
    :func:`extend` hands the list on, grows it in place when the new
    step extends the chain at its end and the list holds no more than
    the chain, and otherwise cuts a copy and walks on from there; so a
    descending run grows one list.  :meth:`strict_steps` hands out a
    prefix as the list and its length.  Because a lineage's dict, index
    and chain list grow in place, a lineage must not be extended in one
    thread while another thread extends it or reads a state of it.
    """

    __slots__ = ("_reals", "_entries", "_size", "_snapshot_json",
                 "_successors", "_chain", "_length")

    def __init__(self, reals: Sequence[RealNum],
                 entries: Mapping[Pair, int] = MappingProxyType({})) -> None:
        entries = dict(entries)
        index = _successors(entries.items())
        chain = _walk(index, [], 0)
        self._seal(reals, entries, len(entries), index, chain, len(chain))

    def _seal(self, reals: Sequence[RealNum], entries: Dict[Pair, int],
              size: int, successors: Dict[int, Tuple[int, int]],
              chain: List[Tuple[int, int]], length: int) -> None:
        self._reals = reals
        self._entries = entries
        self._size = size
        self._snapshot_json: Optional[str] = None
        self._successors = successors
        self._chain = chain
        self._length = length

    reals = property(attrgetter("_reals"))
    size = property(attrgetter("_size"))

    @property
    def entries(self) -> Mapping[Pair, int]:
        """A read-only mapping over a new copy of the state's entries."""
        return MappingProxyType(dict(self._items()))

    def _items(self) -> Iterator[Tuple[Pair, int]]:
        """The state's entries in insertion order, read in place."""
        return islice(self._entries.items(), self._size)

    def _dict(self) -> Dict[Pair, int]:
        """The state's entries as a dict: the lineage's own while the
        state is the newest, else a new copy of its prefix."""
        if len(self._entries) == self._size:
            return self._entries
        return dict(self._items())

    def _index(self) -> Dict[int, Tuple[int, int]]:
        """The successor index of the state's entries: the lineage's
        own while the state is the newest, else a new one built from
        its prefix."""
        if len(self._entries) == self._size:
            return self._successors
        return _successors(self._items())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not KnowledgeState:
            return NotImplemented
        return self._reals == other._reals and self._dict() == other._dict()

    def __repr__(self) -> str:
        return f"KnowledgeState(reals={self._reals!r}, entries={self.entries!r})"

    def get(self, i: int, j: int) -> Optional[int]:
        """The stored witness refuting ``r_i <= r_j``, or None."""
        return self._dict().get((i, j))

    def strict_steps(self, n: int) -> Tuple[List[Tuple[int, int]], int]:
        """The strict steps ``(witness, j)`` of a least-element pass over
        ``0..n``: from i = 0, the stored entry ``(i, j)`` with the least
        ``j > i``, then the same from j, while j <= n.  That is the
        prefix of the state's chain whose subjects are at most n, found
        by bisection and returned as ``(steps, length)``: the steps are
        the first ``length`` items of the shared chain list, which no
        extension changes.  The list may grow past them, so read it
        within ``length``, and never change it."""
        cut = bisect_right(self._chain, n, 0, self._length, key=itemgetter(1))
        return self._chain, cut

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, w) for (i, j), w in sorted(self._items())]

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


def _successors(items: Iterable[Tuple[Pair, int]]) -> Dict[int, Tuple[int, int]]:
    """The successor index of the entries ``items``: for each i, the
    ``(witness, j)`` of its entry with the least ``j > i``."""
    # pairs in descending order, so each i keeps its least j
    return {i: (w, j) for (i, j), w in sorted(items, reverse=True) if j > i}


def _walk(successors: Dict[int, Tuple[int, int]],
          steps: List[Tuple[int, int]], i: int) -> List[Tuple[int, int]]:
    """``steps`` extended, in place, by the strict steps from i on."""
    while (step := successors.get(i)) is not None:
        steps.append(step)
        i = step[1]
    return steps


def empty_state(reals: Sequence[RealNum]) -> KnowledgeState:
    """The state that knows nothing about the reals ``r_0 .. r_n``."""
    return KnowledgeState(reals, {})


def is_sound(state: KnowledgeState) -> bool:
    """Full re-verification of every stored witness."""
    return all(
        op_at(state.reals[j], state.reals[i], k)
        for (i, j), k in state._items()
    )


def extend(state: KnowledgeState, i: int, j: int, k: int) -> KnowledgeState:
    """Add the counterexample ``(i, j) -> k``, verifying it first.

    Extending with an already known pair is a no-op that keeps the
    first witness.  A witness that does not verify raises
    :class:`UnsoundWitness`: that is a programming error in the caller,
    never a learnable fact.  The new state is the newest of its
    lineage: it grows ``state``'s dict and index when ``state`` is the
    newest, and new ones built from ``state``'s prefix otherwise.  It
    shares ``state``'s chain list and length, unless ``(i, j)`` becomes
    the successor of 0 or of a subject on the chain: then its chain is
    cut after i and walked on from j.  When i ends ``state``'s chain
    and the list holds nothing past it, the walk appends to the shared
    list in place; otherwise it walks on a copy of the chain up to i.
    No slot of ``state`` is written, and no state's chain changes.
    """
    entries = state._dict()
    if (i, j) in entries:
        return state
    if not op_at(state.reals[j], state.reals[i], k):
        raise UnsoundWitness(f"op_at(r_{j}, r_{i}, {k}) is false")
    successors = state._index()
    chain, length = state._chain, state._length
    if j > i and (i not in successors or j < successors[i][1]):
        successors[i] = (k, j)
        cut = bisect_right(chain, i, 0, length, key=itemgetter(1))
        if i == 0 or cut and chain[cut - 1][1] == i:
            if not cut == length == len(chain):
                chain = chain[:cut]
            length = len(_walk(successors, chain, i))
    entries[(i, j)] = k
    child = KnowledgeState.__new__(KnowledgeState)
    child._seal(state.reals, entries, state._size + 1, successors, chain,
                length)
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
