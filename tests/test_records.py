"""The value semantics of realearn's read-only records.

Every record below is built positionally and by keyword, with its
defaults left out where it has some, and is checked for its field
values, equality within its type only, hashing, read-only fields and
repr text.  Every record class takes its fields in slot order, and a
wrong call raises what a hand-written ``__init__`` raises.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction as F

import pytest

import realearn
from realearn import (
    Assumed,
    BoundingCertificate,
    Challenge,
    Falsified,
    KnowledgeState,
    LeastCandidate,
    Left,
    Point,
    RealRegistry,
    Refl,
    Right,
)
from realearn.geometry import RationalPoint
from realearn._record import _Record
from realearn.inputs import InputDocument, PointSpec, RealSpec
from realearn.replay import ReplayVerdict, RunReplay

REG = RealRegistry()
X, Y = REG.from_rational(1), REG.blurred(F(-1, 2))
HALF = RealSpec(kind="rational", limit=F(1, 2))
TABLE = RealSpec("table", F(1, 2), ((F(0), F(1)),))
RUN = RunReplay([0, 1], [0, 2], 1, True, True, True)
RUN_TEXT = ("RunReplay(leaf_ranks=[0, 1], leaf_candidates=[0, 2], restarts=1, "
            "progress_ok=True, unique_ok=True, bound_ok=True)")

# (class, positional args, keyword args that build the same record,
#  {field: value} of that record, positional args of a different record,
#  hashable, repr)
CASES = [
    (Point, (0, X, Y), {"index": 0, "x": X, "y": Y},
     {"index": 0, "x": X, "y": Y}, (1, X, Y), True,
     "Point(index=0, x=RealNum(0), y=RealNum(1))"),
    (RationalPoint, (F(1, 2), F(-3)), {"x": F(1, 2), "y": F(-3)},
     {"x": F(1, 2), "y": F(-3)}, (F(1, 2), F(3)), True,
     "RationalPoint(x=Fraction(1, 2), y=Fraction(-3, 1))"),
    (Left, (3,), {"witness": 3}, {"witness": 3}, (4,), True,
     "Left(witness=3)"),
    (Right, (3,), {"witness": 3}, {"witness": 3}, (4,), True,
     "Right(witness=3)"),
    (Refl, (2,), {"i": 2}, {"i": 2, "subject": 2, "target": 2}, (1,), True,
     "Refl(i=2)"),
    (Assumed, (0, 2), {"j": 2, "i": 0},
     {"i": 0, "j": 2, "subject": 0, "target": 2}, (2, 0), True,
     "Assumed(i=0, j=2)"),
    (Falsified, ((0, 3), 5), {"pair": (0, 3), "witness": 5},
     {"pair": (0, 3), "witness": 5}, ((0, 3), 6), True,
     "Falsified(pair=(0, 3), witness=5)"),
    (LeastCandidate, (1, {0: Assumed(1, 0), 1: Refl(1)}),
     {"candidate": 1, "evidences": {0: Assumed(1, 0), 1: Refl(1)}},
     {"candidate": 1, "evidences": {0: Assumed(1, 0), 1: Refl(1)}},
     (0, {0: Refl(0), 1: Assumed(0, 1)}), False,
     "LeastCandidate(candidate=1, evidences={0: Assumed(i=1, j=0), "
     "1: Refl(i=1)})"),
    (Challenge, (1, 4), {"precision": 4, "j": 1},
     {"j": 1, "precision": 4, "force": False}, (1, 4, True), True,
     "Challenge(j=1, precision=4, force=False)"),
    (Challenge, (1, 4, True), {"j": 1, "precision": 4, "force": True},
     {"j": 1, "precision": 4, "force": True}, (1, 4), True,
     "Challenge(j=1, precision=4, force=True)"),
    (RealSpec, ("rational", F(1, 2)), {"kind": "rational", "limit": F(1, 2)},
     {"kind": "rational", "limit": F(1, 2), "prefix": ()},
     ("blurred", F(1, 2)), True,
     "RealSpec(kind='rational', limit=Fraction(1, 2), prefix=())"),
    (RealSpec, ("table", F(1, 2), ((F(0), F(1)),)),
     {"kind": "table", "prefix": ((F(0), F(1)),), "limit": F(1, 2)},
     {"kind": "table", "limit": F(1, 2), "prefix": ((F(0), F(1)),)},
     ("table", F(1, 2), ()), True,
     "RealSpec(kind='table', limit=Fraction(1, 2), prefix=((Fraction(0, 1), "
     "Fraction(1, 1)),))"),
    (PointSpec, (0, HALF, TABLE), {"index": 0, "x": HALF, "y": TABLE},
     {"index": 0, "x": HALF, "y": TABLE}, (0, TABLE, HALF), True,
     f"PointSpec(index=0, x={HALF!r}, y={TABLE!r})"),
    (BoundingCertificate, (0, 1, 2, {3: 4}, {3: 5}, 6, 7),
     {"a": 0, "b": 1, "c": 2, "left": {3: 4}, "right": {3: 5},
      "c_left": 6, "b_right": 7},
     {"a": 0, "b": 1, "c": 2, "left": {3: 4}, "right": {3: 5},
      "c_left": 6, "b_right": 7},
     (0, 1, 2, {3: 4}, {3: 6}, 6, 7), False,
     "BoundingCertificate(a=0, b=1, c=2, left={3: 4}, right={3: 5}, "
     "c_left=6, b_right=7)"),
    (KnowledgeState, (REG,), {"reals": REG},
     {"reals": REG, "entries": {}}, (REG, {(1, 0): 2}), False,
     f"KnowledgeState(reals={REG!r}, entries=mappingproxy({{}}))"),
    (KnowledgeState, (REG, {(1, 0): 2}), {"entries": {(1, 0): 2}, "reals": REG},
     {"reals": REG, "entries": {(1, 0): 2}}, (REG, {(1, 0): 3}), False,
     f"KnowledgeState(reals={REG!r}, "
     "entries=mappingproxy({(1, 0): 2}))"),
    (InputDocument, ([HALF], [PointSpec(0, HALF, TABLE)]),
     {"points": [PointSpec(0, HALF, TABLE)], "reals": [HALF]},
     {"reals": [HALF], "points": [PointSpec(0, HALF, TABLE)]},
     ([HALF], []), False,
     f"InputDocument(reals=[{HALF!r}], "
     f"points=[PointSpec(index=0, x={HALF!r}, y={TABLE!r})])"),
    (RunReplay, ([0, 1], [0, 2], 1, True, True, True),
     {"leaf_ranks": [0, 1], "leaf_candidates": [0, 2], "restarts": 1,
      "progress_ok": True, "unique_ok": True, "bound_ok": True},
     {"leaf_ranks": [0, 1], "leaf_candidates": [0, 2], "restarts": 1,
      "progress_ok": True, "unique_ok": True, "bound_ok": True, "ok": True},
     ([1, 0], [0, 2], 1, False, True, True), False, RUN_TEXT),
    (ReplayVerdict, (2, [RUN]), {"n": 2, "runs": [RUN]},
     {"n": 2, "runs": [RUN], "ok": True}, (2, []), False,
     f"ReplayVerdict(n=2, runs=[{RUN_TEXT}])"),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, fields, other, hashable, text", CASES,
    ids=[f"{case[0].__name__}-{n}" for n, case in enumerate(CASES)])
def test_record_semantics(cls, args, kwargs, fields, other, hashable, text):
    record = cls(*args)
    assert record == cls(**kwargs) == cls(*args)
    assert not record != cls(*args)
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert record != cls(*other)
    # no equality across types, not even with the same field values
    assert record != tuple(fields.values())
    twin = {Left: Right, Right: Left}.get(cls)
    if twin is not None:
        assert record != twin(*args) and twin(*args) != record
    if hashable:
        assert hash(record) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == text


def record_classes():
    for module in pkgutil.iter_modules(realearn.__path__):
        importlib.import_module(f"realearn.{module.name}")
    return _Record.__subclasses__()


def test_only_records_with_defaults_write_an_init():
    written = {cls.__name__ for cls in record_classes()
               if cls.__init__.__code__.co_filename != "<string>"}
    assert written == {"Challenge", "RealSpec"}


def call_error(cls, *args, **kwargs):
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("cls", sorted(record_classes(),
                                       key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_a_record_takes_its_fields_in_slot_order(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    names = [param.name for param in params]
    assert names == [slot[1:] for slot in cls.__slots__]
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    # a hand-written __init__ of the same signature, for the errors a
    # wrong call raises
    source = ", ".join(param.name if param.default is param.empty
                       else f"{param.name}=None" for param in params)
    namespace = {}
    exec(f"class {cls.__name__}:\n"
         f"    def __init__(self, {source}):\n"
         "        pass\n", namespace)
    reference = namespace[cls.__name__]
    required = [param for param in params if param.default is param.empty]
    calls = [
        ((), {}),
        ((None,) * (len(required) - 1), {}),
        ((None,) * len(required), {"unknown": None}),
        ((None,) * (len(params) + 1), {}),
        ((None,), {names[0]: None}),
    ]
    for args, kwargs in calls:
        text = call_error(reference, *args, **kwargs)
        assert text.startswith(f"{cls.__name__}.__init__() ")
        assert call_error(cls, *args, **kwargs) == text
