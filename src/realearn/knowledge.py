"""Knowledge states and evidence chains for guessed order comparisons.

A knowledge state is a finite partial map from an ordered pair of real
indices ``(i, j)`` to a witness precision ``k``.  An entry records a
previously discovered counterexample: the claim ``r_i <= r_j`` was
refuted because ``op_at(r_j, r_i, k)`` holds.  A state is sound when
every stored witness actually verifies; extension re-checks this, so a
sound state can only grow into a sound state.

Comparisons that the state knows nothing about are answered by
assumption (:class:`AssumeLeq`), and each assumption is backed by an
evidence value so that later refutations can be traced back to the
assumption that caused them.  Evidence chains are linear:

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .reals import RealRegistry, op_at

Pair = Tuple[int, int]


class UnsoundWitness(ValueError):
    """A state extension carried a witness that does not verify."""


class ReflFalsified(RuntimeError):
    """A reflexive claim was reported false: internal contradiction."""


@dataclass(frozen=True)
class Refl:
    """Evidence for r_i <= r_i."""

    i: int

    @property
    def subject(self) -> int:
        return self.i

    @property
    def target(self) -> int:
        return self.i


@dataclass(frozen=True)
class Assumed:
    """Unjustified assumption of r_i <= r_j, open to refutation."""

    i: int
    j: int

    @property
    def subject(self) -> int:
        return self.i

    @property
    def target(self) -> int:
        return self.j


@dataclass(frozen=True, eq=False, repr=False)
class Step:
    """Chained evidence: r_subject < r_rest.subject (at ``witness``),
    and ``rest`` claims r_rest.subject <= r_rest.target.

    Equality, hashing and repr have the dataclass meaning but walk the
    chain in a loop, because chains can be longer than the stack.
    """

    witness: int
    rest: "LeqEvidence"
    subject: int

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


LeqEvidence = Union[Refl, Assumed, Step]


def claim(ev: LeqEvidence) -> Pair:
    """The endpoints (subject, target) of the claim ev supports."""
    return (ev.subject, ev.target)


@dataclass(frozen=True)
class AssumeLeq:
    """Decision: no counterexample known, assume the comparison."""

    evidence: Assumed


@dataclass(frozen=True)
class StrictLt:
    """Decision: a stored counterexample witnesses the strict order."""

    witness: int


Decision = Union[AssumeLeq, StrictLt]


@dataclass(frozen=True)
class KnowledgeState:
    """An immutable snapshot of everything learned so far.

    ``entries[(i, j)] = k`` records that ``op_at(r_j, r_i, k)`` holds,
    refuting the claim ``r_i <= r_j``.  The mapping is treated as a
    value: :func:`extend` returns a new state and never mutates.
    """

    registry: RealRegistry
    entries: Dict[Pair, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.entries)

    def get(self, i: int, j: int) -> Optional[int]:
        return self.entries.get((i, j))

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, w) for (i, j), w in sorted(self.entries.items())]


def empty_state(registry: RealRegistry) -> KnowledgeState:
    return KnowledgeState(registry, {})


def is_sound(state: KnowledgeState) -> bool:
    """Full re-verification of every stored witness."""
    return all(
        op_at(state.registry[j], state.registry[i], k)
        for (i, j), k in state.entries.items()
    )


def decide_total(state: KnowledgeState, i: int, j: int) -> Decision:
    """Answer the comparison r_i <= r_j from current knowledge.

    Undecided pairs are assumed (with fresh :class:`Assumed` evidence);
    pairs with a stored counterexample answer strictly.
    """
    witness = state.entries.get((i, j))
    if witness is None:
        return AssumeLeq(Assumed(i, j))
    assert op_at(state.registry[j], state.registry[i], witness), \
        f"unsound state entry ({i}, {j}) -> {witness}"
    return StrictLt(witness)


def extend(state: KnowledgeState, i: int, j: int, k: int) -> KnowledgeState:
    """Add the counterexample ``(i, j) -> k``, verifying it first.

    Extending with an already known pair is a no-op that keeps the
    first witness.  A witness that does not verify raises
    :class:`UnsoundWitness`: that is a programming error in the caller,
    never a learnable fact.
    """
    if (i, j) in state.entries:
        return state
    if not op_at(state.registry[j], state.registry[i], k):
        raise UnsoundWitness(f"op_at(r_{j}, r_{i}, {k}) is false")
    entries = dict(state.entries)
    entries[(i, j)] = k
    return KnowledgeState(state.registry, entries)


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


@dataclass(frozen=True)
class Falsified:
    """Outcome of a failed check: which pair to learn, at what witness."""

    pair: Pair
    witness: int


def check_leq(registry: RealRegistry, ev: LeqEvidence, p: int) -> Optional[Falsified]:
    """Test one instance of the claim carried by ``ev`` at precision p.

    Evaluates ``op_at(r_target, r_subject, p)``: False means the
    instance holds and None is returned; True refutes the claim, and
    the blame fold converts the refutation into a state extension.
    """
    a, b = ev.subject, ev.target
    if not op_at(registry[b], registry[a], p):
        return None
    pair, witness = blame(ev, p)
    return Falsified(pair, witness)
