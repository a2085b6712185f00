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


# the constructions, by module and qualified name, that only construct: the
# suite checks are the one place their properties are verified
CONSTRUCTIONS = {
    "honda.py": {"HondaData.build"},
    "points.py": {"build_points", "PointFamily.__init__"},
}


def _verifier_calls(tree, qualnames):
    """(qualified name, callee) for each call to ``check_honda``,
    ``is_delta_fixed`` or a ``verify_*`` inside the named functions."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs.update(
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    )
    return sorted(
        (name, callee)
        for name in qualnames
        for node in ast.walk(defs[name])
        if isinstance(node, ast.Call)
        for callee in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if callee in ("check_honda", "is_delta_fixed") or str(callee).startswith("verify_")
    )


@pytest.mark.parametrize("module", sorted(CONSTRUCTIONS))
def test_constructions_verify_nothing(module):
    tree = ast.parse((SRC / module).read_text())
    assert _verifier_calls(tree, CONSTRUCTIONS[module]) == []


def test_scan_finds_a_planted_verifier_call():
    tree = ast.parse(
        "class HondaData:\n"
        "    @classmethod\n"
        "    def build(cls, ctx, order):\n"
        "        ell = build_ell(ctx, order)\n"
        "        report = check_honda(ell)\n"
        "        return cls(ctx, ell)\n"
        "def build_points(honda, tower, n_max):\n"
        "    fam = PointFamily(honda, tower, n_max)\n"
        "    assert all(tower.is_delta_fixed(c) for c in fam.c)\n"
        "    points.verify_norm_tower(fam)\n"
        "    return fam\n"
        "def helper(fam):\n"
        "    return verify_generation(fam, 1)\n"
    )
    assert _verifier_calls(tree, {"HondaData.build", "build_points", "helper"}) == [
        ("HondaData.build", "check_honda"),
        ("build_points", "is_delta_fixed"),
        ("build_points", "verify_norm_tower"),
        ("helper", "verify_generation"),
    ]


# a run's lazy stages have one home, _Session.stage, which also keeps a
# failed stage's error; these decorators would keep only the values
MEMO_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _memo_mechanisms(tree):
    """(line, name) of each functools import and of each decorator named
    in MEMO_DECORATORS, called or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "functools"]
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.append((node.lineno, "functools"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if name in MEMO_DECORATORS:
                    found.append((dec.lineno, name))
    return sorted(found)


def test_runner_stages_have_one_memo():
    assert _memo_mechanisms(ast.parse((SRC / "runner.py").read_text())) == []


def test_scan_finds_a_planted_memo():
    tree = ast.parse(
        "import json, functools\n"
        "from functools import lru_cache as memo\n"
        "class _Session:\n"
        "    @functools.cached_property\n"
        "    def honda(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def fam(self):\n"
        "        return self.stage('fam', len, ())\n"
        "def _run_tate(s, report):\n"
        "    @functools.cache\n"
        "    def grid():\n"
        "        return 2\n"
        "    @memo(maxsize=None)\n"
        "    def sums(q):\n"
        "        return 3\n"
        "    @lru_cache(maxsize=None)\n"
        "    def a_inv(q):\n"
        "        return 4\n"
    )
    assert _memo_mechanisms(tree) == [
        (1, "functools"),
        (2, "functools"),
        (4, "cached_property"),
        (11, "cache"),
        (17, "lru_cache"),
    ]


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
    planted = ("x", "padiclab.coleman", "GroupRingElement.no_such_span", "span", None)
    assert _unresolved([planted]) == [("padiclab.coleman", "GroupRingElement.no_such_span")]
