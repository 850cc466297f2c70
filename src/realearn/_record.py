"""The base of realearn's read-only value records."""

from operator import attrgetter


class _Record:
    """A ``__slots__`` record that compares, hashes and prints by value.

    A subclass lists its fields in ``__slots__``, each named ``_name``,
    and writes its own ``__init__``.  For every name its body does not
    define itself, the subclass gets a read-only property ``name`` per
    field; an ``__eq__`` that is true only against the same class with
    equal fields, and ``NotImplemented`` otherwise; a ``__hash__`` of
    the fields; and a ``__repr__`` ``Cls(name=value, ...)`` in slot
    order.  A record with a dict field sets ``__hash__ = None`` in its
    body and stays unhashable.

    Not a frozen dataclass: that would compile generated source at
    every import, and a learner run, which records one trace event per
    decision, builds a ``__slots__`` record in about a third of the
    time.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        slots = cls.__dict__["__slots__"]
        fields = attrgetter(*slots)

        def __eq__(self, other: object) -> bool:
            if other.__class__ is not cls:
                return NotImplemented
            return fields(self) == fields(other)

        def __hash__(self) -> int:
            return hash(fields(self))

        def __repr__(self) -> str:
            return "{}({})".format(cls.__name__, ", ".join(
                f"{slot[1:]}={getattr(self, slot)!r}" for slot in slots))

        derived = {slot[1:]: property(attrgetter(slot)) for slot in slots}
        derived.update(__eq__=__eq__, __hash__=__hash__, __repr__=__repr__)
        for name, value in derived.items():
            if name not in cls.__dict__:
                setattr(cls, name, value)
