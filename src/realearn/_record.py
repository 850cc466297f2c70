"""The base of realearn's read-only value records."""

from operator import attrgetter


class _Record:
    """A ``__slots__`` record that builds, compares, hashes and prints
    by value.

    A subclass lists its fields in ``__slots__``, each named ``_name``.
    For every name its body does not define itself, the subclass gets
    an ``__init__(self, name, ...)`` that takes the fields in slot
    order, positionally or by name; a read-only property ``name`` per
    field; an ``__eq__`` that is true only against the same class with
    equal fields, and ``NotImplemented`` otherwise; a ``__hash__`` of
    the fields; and a ``__repr__`` ``Cls(name=value, ...)`` in slot
    order.  A record with a dict or list field sets ``__hash__ = None``
    in its body and stays unhashable.  A record with defaults writes
    its own ``__init__``.

    The ``__init__`` is compiled from source, as ``namedtuple`` and
    ``dataclasses`` do.  On CPython 3.11 its bytecode is that of the
    hand-written ``__init__`` with the same signature, so a call costs
    the same and a wrong call raises the same ``TypeError`` text, such
    as ``Point.__init__() missing 1 required positional argument:
    'y'``.  Compiling one costs 30-45 us per record class at import on
    a 2-CPU VM.  Unlike a frozen dataclass, a record imports neither
    ``dataclasses`` nor ``inspect``.
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
        if "__init__" not in cls.__dict__:
            cls.__init__ = _init(cls, slots)


def _init(cls: type, slots: tuple):
    """``cls.__init__``, compiled from source, that sets each of
    ``slots`` from the argument named after it."""
    params = ", ".join(slot[1:] for slot in slots)
    body = "".join(f"\n    self.{slot} = {slot[1:]}" for slot in slots)
    namespace: dict = {}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
