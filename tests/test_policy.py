"""The residual policy lives in PrimeContext: no module states its own
tolerance, and ``require`` is the one place a residual passes or fails."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import padiclab
from padiclab import PrimeContext, PropertyFailure

SRC = Path(padiclab.__file__).parent


def _prec_literals(tree):
    """Line numbers of ``prec - <int>`` outside PrimeContext.__init__."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "PrimeContext":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed = {id(node) for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant)
            and isinstance(node.right.value, int)
            and getattr(node.left, "attr", getattr(node.left, "id", None)) == "prec"
            and id(node) not in allowed
        ):
            found.append(node.lineno)
    return found


def _threshold_parameters(tree):
    return [
        (getattr(node, "name", "<lambda>"), arg.arg)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        if "threshold" in arg.arg
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_states_its_own_tolerance(path):
    tree = ast.parse(path.read_text())
    assert _prec_literals(tree) == [], f"{path.name}: prec - k literal outside PrimeContext"
    assert _threshold_parameters(tree) == []


def test_scan_finds_a_literal_tolerance():
    tree = ast.parse(
        "def f(ctx, r, threshold=None):\n    return r >= ctx.prec - 2\n"
        "class PrimeContext:\n    def __init__(self, prec):\n        self.x = prec - 2\n"
    )
    assert _prec_literals(tree) == [2]
    assert _threshold_parameters(tree) == [("f", "threshold")]


# the packed (denominator, precision, ints) format and its kernels
PACKED = {
    "_pack",
    "_unpack",
    "_normalise",
    "_product_scale",
    "_product_ints",
    "_kronecker",
    "_compose_ints",
    "_paterson_stockmeyer",
    "_to_int",
    "_from_int",
    "_reduce",
    "_fold",
    "_trace_form",
    "_group_product",
}
VECTOR_MODULES = {"series.py", "cyclotomic.py"}


def test_every_packed_name_is_a_vector_module_kernel():
    # a deleted or renamed kernel must leave the policy with it
    defined = {
        node.name
        for name in VECTOR_MODULES
        for node in ast.parse((SRC / name).read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert sorted(PACKED - defined) == []


def _packed_uses(tree):
    """The packed-format helpers a module imports or reaches as attributes."""
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in PACKED
    ]
    names += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PACKED
    ]
    return sorted(names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_packed_format_stays_in_the_vector_modules(path):
    # every other module sees TruncatedSeries and CycloElement, not triples
    if path.name not in VECTOR_MODULES:
        assert _packed_uses(ast.parse(path.read_text())) == [], path.name


def test_scan_finds_a_packed_import():
    tree = ast.parse(
        "from .series import TruncatedSeries, _pack\n"
        "from . import series\n"
        "ints = series._product_ints(a, b, 4)\n"
    )
    assert _packed_uses(tree) == ["_pack", "_product_ints"]


# the one pack-and-multiply, and the Horner step of the baby-step/giant-step
# evaluator, which packs its giant step once and multiplies by it at every
# step
PACKERS = {"_kronecker", "_paterson_stockmeyer"}


def _packers(tree):
    """The module functions and methods, by qualified name, that call
    ``_to_int`` anywhere in their bodies."""
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    ]
    return sorted(
        name
        for name, fn in defs
        if any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_to_int"
            for node in ast.walk(fn)
        )
    )


def test_every_vector_product_goes_through_one_kernel():
    # a fifth copy of pack-and-multiply, with its own slot width, fails here
    found = {name for path in SRC.glob("*.py") for name in _packers(ast.parse(path.read_text()))}
    assert found == PACKERS


def test_scan_finds_a_planted_pack_and_multiply():
    tree = ast.parse(
        "from . import series\n"
        "from .series import _to_int\n"
        "class Field:\n"
        "    def _product(self, a, b):\n"
        "        def pack(v):\n"
        "            return series._to_int(v, 9)\n"
        "        return pack(a) * pack(b)\n"
        "def _kronecker(a, b, terms, read, count):\n"
        "    return read(_to_int(a, 9) * _to_int(b, 9), 9, count)\n"
        "def _to_int(ints, w):\n"
        "    return 0\n"
    )
    assert _packers(tree) == ["Field._product", "_kronecker"]


def test_require_returns_or_names_the_failure():
    ctx = PrimeContext(5, 12)
    assert ctx.require(10, "identity") == 10
    assert ctx.require(8, "solve", ctx.solve_floor) == 8
    with pytest.raises(PropertyFailure, match=r"^identity fails \(valuation 9\)$"):
        ctx.require(9, "identity fails")
    with pytest.raises(PropertyFailure, match="valuation 7"):
        ctx.require(7, "solve", ctx.solve_floor)


SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _unresolved(targets):
    """(module, attribute path) pairs of traced targets that padiclab no
    longer has."""
    missing = []
    for _, module, path, *_ in targets:
        try:
            obj = importlib.import_module(module)
            for attr in path.split("."):
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            missing.append((module, path))
    return missing


def test_benchmark_span_targets_resolve(monkeypatch):
    # the benchmark wraps these functions from outside; a rename or a
    # deletion would otherwise break only its traced run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) > 40
    assert _unresolved(spans.TARGETS) == []
    assert _unresolved([("x", "padiclab.coleman", "GroupRingElement.scale", "span", None)]) == [
        ("padiclab.coleman", "GroupRingElement.scale")
    ]
