"""The package surface: lazy exports and the `Record` value classes."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gausslab
from gausslab.charsum import (
    ASLinear,
    CrossMonomial,
    DiagMonomial,
    HalfSquare,
    HDReport,
    KernelData,
    Precompose,
    WittLinear,
)
from gausslab.fields import make_field
from gausslab.heisenberg import DatumHeisenberg
from gausslab.varieties import SurfaceSummand, ZetaData

ROOT = Path(__file__).resolve().parent.parent
FROZEN = (DiagMonomial, CrossMonomial, HalfSquare, WittLinear, ASLinear, Precompose)
MUTABLE = (KernelData, HDReport, DatumHeisenberg, ZetaData, SurfaceSummand)


def test_every_export_is_the_defining_modules_object():
    for name in gausslab.__all__:
        obj = getattr(gausslab, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("gausslab.")
        assert getattr(module, name) is obj, name
    assert set(gausslab.__all__) <= set(dir(gausslab))
    assert "__version__" in dir(gausslab)


def test_star_import_and_from_import():
    namespace = {}
    exec("from gausslab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gausslab.__all__)
    from gausslab import QuadraticForm, zeta_pipeline

    assert QuadraticForm is importlib.import_module("gausslab.quadform").QuadraticForm
    assert zeta_pipeline is importlib.import_module("gausslab.varieties").zeta_pipeline


def _named(tree, skip=None):
    """The names a tree reads as ast.Name or ast.Attribute, outside the
    subtree `skip`; strings, docstrings and the export table are not uses."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_library_function_has_a_caller_outside_the_tests():
    # every top-level function and non-dunder method of the package is named
    # somewhere in the package (outside its own def), in bench/ or in demos/
    library = {path: ast.parse(path.read_text()) for path in sorted(ROOT.glob("src/gausslab/*.py"))}
    callers = {path: ast.parse(path.read_text())
               for path in sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))}
    outside = set().union(*map(_named, callers.values()))
    uncalled = []
    for path, tree in library.items():
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        for name, node in defs:
            if node.name.startswith("__") and node.name.endswith("__") or node.name in outside:
                continue
            if not any(node.name in _named(other, node if other is tree else None)
                       for other in library.values()):
                uncalled.append(f"{path.stem}.{name}")
    assert not uncalled, f"only the tests call {uncalled}"


def test_unknown_export_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gausslab.no_such_name
    with pytest.raises(ImportError):
        from gausslab import no_such_name  # noqa: F401


def test_package_import_loads_no_module_until_an_export_is_used():
    code = (
        "import sys\n"
        "import gausslab\n"
        "print(sorted(m for m in sys.modules if m.startswith('gausslab')))\n"
        "gausslab.FiniteField\n"
        "print(sorted(m for m in sys.modules if m.startswith('gausslab')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    first, second = proc.stdout.splitlines()
    assert first == "['gausslab']"
    assert second == "['gausslab', 'gausslab.errors', 'gausslab.fields']"


def _dataclass_twin(cls, frozen):
    """The `dataclasses` class the record replaced: same name, fields, frozenness."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f, object) for f in cls.__annotations__], frozen=frozen
    )


@pytest.mark.parametrize("cls", FROZEN + MUTABLE, ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    frozen = cls in FROZEN
    twin = _dataclass_twin(cls, frozen)
    fields = list(cls.__annotations__)
    values = [f"v{i}" for i in range(len(fields))]
    rec, dc = cls(*values), twin(*values)
    assert repr(rec) == repr(dc)
    assert rec == cls(**dict(zip(fields, values))) == cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert rec != cls(*values[:-1], "other")
    if frozen:
        assert hash(rec) == hash(dc) == hash(cls(*values))
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(rec, fields[0], "x")
        with pytest.raises(AttributeError):
            delattr(rec, fields[0])
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        setattr(rec, fields[0], "x")
        assert getattr(rec, fields[0]) == "x"
    for bad in (lambda: cls(*values, "extra"), lambda: cls(), lambda: cls(*values, nope=1),
                lambda: cls(*values, **{fields[0]: "x"})):
        with pytest.raises(TypeError):
            bad()


def test_record_equality_is_type_sensitive():
    a = make_field(3, 1).one()
    assert HalfSquare(0, a) != ASLinear(0, a)
    assert ASLinear(0, a) != WittLinear(0, a)
    assert HalfSquare(0, a) == HalfSquare(j=0, a=a)
    assert len({HalfSquare(0, a), ASLinear(0, a), HalfSquare(0, a)}) == 2
    assert DiagMonomial(0, 1, a).kind == "diag"


def test_zeta_data_flags_default_is_fresh_per_instance():
    a = ZetaData(2, 0, [], [], None, None)
    b = ZetaData(2, 0, [], [], None, None)
    assert a.flags == {} and a.flags is not b.flags
    a.flags["w_is_free"] = True
    assert b.flags == {} and ZetaData(2, 0, [], [], None, None).flags == {}
    assert ZetaData(2, 0, [], [], None, None, {"x": 1}).flags == {"x": 1}
    assert repr(b) == (
        "ZetaData(q=2, betti=0, counts=[], power_sums=[], l_poly=None, "
        "certificate=None, flags={})"
    )
