"""Every cross-reference in realearn's sources, and every ``realearn.``
name in the README, names something that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import realearn

REPO = Path(__file__).resolve().parent.parent
ROLE = re.compile(r":(?:func|meth|class|mod|data|attr|exc):`([^`]+)`")
MODULES = ["__init__"] + sorted(
    module.name for module in pkgutil.iter_modules(realearn.__path__))
MISSING = object()


def attributes(obj, names):
    """``obj.names[0].names[1]...``, or MISSING."""
    for name in names:
        obj = getattr(obj, name, MISSING)
        if obj is MISSING:
            break
    return obj


def lookup(dotted):
    """The object an absolute dotted name names: its longest importable
    module prefix, then attributes of that module; or MISSING."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return attributes(module, parts[cut:])
    return MISSING


def resolves(target, module):
    """Whether a reference in ``module`` names something: as a dotted
    name from realearn (``.reals`` included), from the module itself,
    or from a class the module defines."""
    target = target.lstrip("~")
    if target.startswith("."):
        return lookup(f"realearn{target}") is not MISSING
    if target.startswith("realearn."):
        return lookup(target) is not MISSING
    parts = target.split(".")
    scopes = [module] + [value for value in vars(module).values()
                         if isinstance(value, type)
                         and value.__module__ == module.__name__]
    if any(attributes(scope, parts) is not MISSING for scope in scopes):
        return True
    return "." in target and lookup(target) is not MISSING


@pytest.mark.parametrize("name", MODULES)
def test_every_docstring_reference_resolves(name):
    source = (REPO / "src" / "realearn" / f"{name}.py").read_text(
        encoding="utf-8")
    targets = set(ROLE.findall(source))
    if not targets:
        return
    module = (realearn if name == "__init__"
              else importlib.import_module(f"realearn.{name}"))
    assert [t for t in sorted(targets) if not resolves(t, module)] == []


def test_every_realearn_name_in_the_readme_resolves():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`(realearn(?:\.\w+)+)`", text))
    assert "realearn.reals.sub" in names
    assert [name for name in sorted(names) if lookup(name) is MISSING] == []
