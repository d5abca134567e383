"""Value classes: the import contract and the semantics every record shares."""

import ast
import copy
import importlib.util
import json
import os
import pickle
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import grflop
# perfbench/layers.py finds the traced modules in sys.modules; importing the
# CLI loads them all, as perfbench/workloads.py does before it traces.
import grflop.cli  # noqa: F401
from grflop.exceptional import (CollectionReport, ExceptionalCollection,
                                ResolutionReport, ResolutionSequence, Violation,
                                builtin_collection, builtin_resolution,
                                check_collection, check_resolution)
from grflop.filtered import FilteredBundle, SuiteItem
from grflop.homog import (GR25, GR35, BundleSum, Cohomology, FlagVariety,
                          HomogeneousBundle, line_bundle, structure_sheaf)
from grflop.report import Report
from grflop.stability import (ConeProblem, KNSolution, Membership, Ratio, Stratum,
                              hl_membership, kn_adapted)
from grflop.total_space import (XMINUS, XPLUS, CutoffCertificate, ExtTable,
                                PretiltingReport, TotalSpaceModel, ext_table,
                                is_pretilting)
from grflop.value import Value
from helpers import core_extension

# The modules perfbench/layers.py and perfbench/cuts.py look up in sys.modules.
TRACED_MODULES = ("bundleset", "cli", "exceptional", "filtered", "homog",
                  "partitions", "report", "stability", "total_space", "verify")


def test_cli_import_leaves_dataclasses_out():
    """A fresh `import grflop.cli` loads every traced module and `value`, but
    not `dataclasses`, HomogeneousBundle still defines its own __init__, and
    the import heap is frozen, out of every later collection."""
    src = str(Path(grflop.__file__).resolve().parents[1])
    code = ("import gc, json, sys, grflop.cli, grflop.homog as h; print(json.dumps("
            "[sorted(sys.modules), '__init__' in vars(h.HomogeneousBundle), "
            "gc.get_freeze_count()]))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    modules, has_init, frozen = json.loads(out)
    assert "dataclasses" not in modules
    for name in TRACED_MODULES + ("value",):
        assert f"grflop.{name}" in modules
    assert has_init
    assert frozen > 0


def test_cli_import_loads_no_json():
    """No command imports json, whose import costs every process about a
    millisecond, nor fractions, which brings decimal and numbers with it:
    a fresh `import grflop.cli` leaves them out and still loads every traced
    module."""
    src = str(Path(grflop.__file__).resolve().parents[1])
    code = "import sys, grflop.cli; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=60).stdout
    modules = ast.literal_eval(out)
    assert "json" not in modules
    assert not {"fractions", "decimal", "numbers"} & set(modules)
    for name in TRACED_MODULES:
        assert f"grflop.{name}" in modules


MAX_MODULE_LINES = 400


def test_no_module_is_long():
    """No module of the package is longer than MAX_MODULE_LINES lines.

    A process without cached bytecode parses every module, and the parser's
    memory stays resident after it: about 3 KiB per source line (Python
    3.11.7; `compile()` of a 487-line `cli.py` in a fresh interpreter raised
    VmHWM by 1,368-1,528 KiB, of `homog.py` by 1,236-1,252 KiB).  With cached
    bytecode a fresh `import grflop.cli` peaked about 1.3 MiB lower, so that
    much of every process's peak was parse residue.  A long module parsed late, when the
    heap is fullest, sets the peak: `cli.py` at 487 lines was that module,
    and splitting its handlers into `commands.py` lowered every command's
    VmHWM by about 0.3 MiB.
    """
    lengths = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted(Path(grflop.__file__).parent.glob("*.py"))}
    assert {name: n for name, n in lengths.items() if n > MAX_MODULE_LINES} == {}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    """A perfbench script, loaded by path (perfbench is not a package)."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_names_resolve():
    """Every name the benchmark traces or cuts at is still there, so renaming
    one fails here instead of in a traced benchmark run."""
    layers, cuts = _load_perfbench("layers"), _load_perfbench("cuts")
    grflop_modules = [mod for name, mod in sys.modules.items() if name.startswith("grflop.")]
    before = [dict(vars(mod)) for mod in grflop_modules]
    tracer = layers.Tracer()
    with tracer:
        pass
    assert set(tracer.spans) == {layers.span_name(e) for e in layers.ENTRY_POINTS}
    assert [dict(vars(mod)) for mod in grflop_modules] == before
    for entry in cuts.CUT_POINTS:
        module, name = entry.split(".")
        assert callable(getattr(sys.modules[f"grflop.{module}"], name))


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN["cli_queries"], key=int))
def test_cli_queries_match_golden(seed, tmp_path, monkeypatch):
    """The first 120 cli_queries ops of each recorded seed, run in process,
    print what golden.json recorded: a change to a command's output bytes
    fails here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports cuts
    workloads = _load_perfbench("workloads")
    workloads.import_program()
    runner = workloads.OpRunner(workloads.WORKLOADS["cli_queries"], int(seed),
                                in_process=True, scratch=tmp_path)
    assert len(runner.golden) == 120
    ops = islice(runner.workload.inputs(random.Random(int(seed))), 120)
    for index, op in enumerate(ops):
        ok, dig = runner.check(index, op, runner.execute(op))
        assert (ok, dig) == (True, runner.golden[index]), (index, op)


B = HomogeneousBundle(GR35, ((2, 1, 0), (0, 0)), 2)
O25 = structure_sheaf(GR25)

# One factory per converted class; each call builds a new, equal instance.
FACTORIES = {
    FlagVariety: lambda: FlagVariety(5, (2, 3)),
    Cohomology: lambda: Cohomology(0, (1, 0, 0, 0, 0), 5),
    HomogeneousBundle: lambda: HomogeneousBundle(GR35, [[2, 1, 0], [0, 0]], 2),
    BundleSum: lambda: BundleSum.of(GR25, [line_bundle(GR25, 1), O25]),
    TotalSpaceModel: lambda: TotalSpaceModel("custom", GR25, ((2, 2), (1, 0, 0))),
    CutoffCertificate: lambda: CutoffCertificate(2, B),
    ExtTable: lambda: ext_table(XPLUS, B, B, cutoff=1),
    PretiltingReport: lambda: is_pretilting(XMINUS, O25),
    ExceptionalCollection: lambda: builtin_collection("lef-gr25"),
    Violation: lambda: Violation("strongness", 0, 1, 2, 3),
    CollectionReport: lambda: check_collection(builtin_collection("lef-gr25")),
    ResolutionSequence: lambda: builtin_resolution("lascoux-1"),
    ResolutionReport: lambda: check_resolution(builtin_resolution("lascoux-1"), range(2)),
    FilteredBundle: core_extension,
    SuiteItem: lambda: SuiteItem("probe", "a probe", True, {"l0": 0}),
    Membership: lambda: hl_membership((0, 0, 0), (0, 0, 0), "plus"),
    ConeProblem: lambda: ConeProblem(("q2", "q1", "q2"), "minus"),
    Ratio: lambda: Ratio(4, 18),
    KNSolution: lambda: kn_adapted(ConeProblem(("q3",), "minus")),
    Stratum: lambda: Stratum("plus", "probe", ConeProblem(("q1",), "plus"),
                             Ratio(2, 9), (1, 1, -4),
                             kn_adapted(ConeProblem(("q1",), "plus"))),
}


def test_every_value_class_is_covered():
    found = {cls for mod in (grflop.homog, grflop.total_space, grflop.exceptional,
                             grflop.filtered, grflop.stability)
             for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, Value) and cls is not Value}
    assert found == set(FACTORIES)


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls is SuiteItem:  # its details are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)

    # A different class never compares equal, not even with the same fields.
    twin = object.__new__(type("Twin", (Value,), {"__slots__": cls.__slots__}))
    for name in cls.__slots__:
        object.__setattr__(twin, name, getattr(a, name))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, name) for name in cls.__slots__)

    first = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b

    if cls.__repr__ is Value.__repr__:
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__slots__)
        assert repr(a) == f"{cls.__name__}({fields})"

    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_repr_form():
    assert repr(Violation("strongness", 0, 1, 2, 3)) == \
        "Violation(kind='strongness', source=0, target=1, degree=2, dim=3)"
    assert repr(FlagVariety(5, (2,))) == "FlagVariety(n=5, dims=(2,))"


def test_validation_moved_into_init():
    assert ConeProblem(("q2", "q1", "q2"), "minus").supports == ("q1", "q2")
    assert HomogeneousBundle(GR35, [[1, 0, 0], [0, 0]]).blocks == ((1, 0, 0), (0, 0))
    assert HomogeneousBundle(GR35, ((0, 0, 0), (0, 0))).mult == 1
    with pytest.raises(ValueError, match="multiplicity must be positive"):
        HomogeneousBundle(GR35, ((0, 0, 0), (0, 0)), mult=0)
    with pytest.raises(ValueError, match="invalid subspace dimensions"):
        FlagVariety(5, (3, 2))
    with pytest.raises(ValueError, match="empty collection"):
        ExceptionalCollection("none", GR35, ())


def pass_through_inits(package: Path) -> list[str]:
    """``module.Class`` for every Value subclass in `package` whose __init__
    does nothing but call ``super().__init__(...)``, after a docstring."""
    found = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(cls, ast.ClassDef)
                    and any(ast.unparse(b) == "Value" for b in cls.bases)):
                continue
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    body = f.body[1:] if ast.get_docstring(f) is not None else f.body
                    if len(body) == 1 and ast.unparse(body[0]).startswith("super().__init__("):
                        found.append(f"{path.stem}.{cls.name}")
    return found


def test_no_pass_through_init():
    """A record's fields are declared once, in __slots__: an __init__ that only
    forwards its arguments repeats them twice more."""
    assert pass_through_inits(Path(grflop.__file__).parent) == []


class _Pair(Value):
    __slots__ = ("first", "second")


@pytest.mark.parametrize("cls", [_Pair] + [c for c in FACTORIES if "__init__" not in vars(c)],
                         ids=lambda cls: cls.__name__)
def test_field_count_is_checked(cls):
    """A subclass without its own __init__ takes exactly one value per field."""
    n = len(cls.__slots__)
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError,
                           match=f"^{cls.__qualname__} takes {n} values, got {count}$"):
            cls(*range(count))


def test_report_defaults_are_not_shared():
    a, b = Report("a"), Report("b")
    a.add("c", "info")
    assert b.checks == [] and b.input_echo == {}
    assert Report("c", input_echo={"x": 1}).input_echo == {"x": 1}
