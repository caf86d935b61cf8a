"""Record semantics across the package.

Every named tuple the package defines is a record (``lang.class_checked``)
unless it is one of the numeric values in ``VALUE_TUPLES``, which keep plain
tuple equality for speed.  ``Antichain`` is a slotted class with the same
face.  The walk covers records added later: each needs a sample here.
"""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

import absint
from absint import antichain, boundsolve, cfg, focused, intervals, lang, rewrite
from absint.intervals import NEG_INF, POS_INF, AbstractEnv, Interval

VALUE_TUPLES = {"absint.intervals.Interval", "absint.intervals.AbstractEnv", "absint.rewrite.LinearForm",
                "absint.rewrite._State"}


def _package_classes():
    for info in pkgutil.iter_modules(absint.__path__):
        module = importlib.import_module(f"absint.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


RECORDS = sorted((c for c in _package_classes() if issubclass(c, tuple)
                  and f"{c.__module__}.{c.__name__}" not in VALUE_TUPLES), key=lambda c: c.__name__)


def _samples() -> dict:
    """One instance per record class, built afresh for each test."""
    x, one = lang.Var("x"), lang.Const(1)
    cmp = lang.Cmp("<", x, lang.Const(5))
    assign = lang.Assign("x", lang.BinOp("+", x, one))
    edge = cfg.Edge("L0", cfg.AssignLabel("x", lang.BinOp("-", x, lang.Nondet())), "L1")
    chain = antichain.Antichain(antichain.Orientation.KEEP_MAX, (3, 5))
    verdict = intervals.AssertVerdict(0, "L1", True)
    env = AbstractEnv(("x",), (Interval(0, POS_INF),))
    return {
        "Const": one,
        "Var": x,
        "BinOp": lang.BinOp("+", x, one),
        "Nondet": lang.Nondet(),
        "Cmp": cmp,
        "CondNondet": lang.CondNondet(),
        "Assign": assign,
        "If": lang.If(cmp, (assign,), ()),
        "While": lang.While(lang.CondNondet(), (assign, lang.AccessStmt("b"))),
        "Assert": lang.Assert(cmp),
        "AccessStmt": lang.AccessStmt("b"),
        "Decl": lang.Decl("x", lang.Const(-2)),
        "Program": lang.Program((lang.Decl("x", None),), (assign,)),
        "_Token": lang._Token("ident", "x", 1, 2),
        "Nop": cfg.Nop(),
        "AssignLabel": cfg.AssignLabel("x", one),
        "AssumeLabel": cfg.AssumeLabel(lang.CondNondet()),
        "AccessLabel": cfg.AccessLabel("b", 0),
        "Edge": edge,
        "AssertSite": cfg.AssertSite(0, "L1", cmp),
        "Cfg": cfg.Cfg(("L0", "L1"), "L0", (edge,), (), ("x",)),
        "AccessIndex": cfg.Cfg(("s", "t"), "s", (cfg.Edge("s", cfg.AccessLabel("b", 0), "t"),)).access_index,
        "BConst": boundsolve.BConst(POS_INF),
        "BRef": boundsolve.BRef("x"),
        "BAdd": boundsolve.BAdd(boundsolve.BRef("x"), -1),
        "BMin": boundsolve.BMin(boundsolve.BRef("x"), boundsolve.BConst(7)),
        "BMax": boundsolve.BMax(boundsolve.BRef("x"), boundsolve.BConst(NEG_INF)),
        "BoundSystem": boundsolve.BoundSystem((("x", boundsolve.BConst(0)),)),
        "AssertVerdict": verdict,
        "AnalysisResult": intervals.AnalysisResult({"L1": env}, (verdict,)),
        "RewriteMap": rewrite.RewriteMap((("y", rewrite.LinearForm(0, ("x",), (1,))),)),
        "BlockView": focused.BlockView(True, chain),
        "Antichain": chain,
    }


# The repr of each sample as the package printed it when its records were
# frozen dataclasses; reports and goldens print these reprs.
REPRS = {
    'Const': 'Const(value=1)',
    'Var': "Var(name='x')",
    'BinOp': "BinOp(op='+', left=Var(name='x'), right=Const(value=1))",
    'Nondet': 'Nondet()',
    'Cmp': "Cmp(op='<', left=Var(name='x'), right=Const(value=5))",
    'CondNondet': 'CondNondet()',
    'Assign': "Assign(var='x', expr=BinOp(op='+', left=Var(name='x'), right=Const(value=1)))",
    'If': "If(cond=Cmp(op='<', left=Var(name='x'), right=Const(value=5)), then=(Assign(var='x', "
          "expr=BinOp(op='+', left=Var(name='x'), right=Const(value=1))),), orelse=())",
    'While': "While(cond=CondNondet(), body=(Assign(var='x', expr=BinOp(op='+', left=Var(name='x'), "
             "right=Const(value=1))), AccessStmt(block='b')))",
    'Assert': "Assert(cond=Cmp(op='<', left=Var(name='x'), right=Const(value=5)))",
    'AccessStmt': "AccessStmt(block='b')",
    'Decl': "Decl(name='x', init=Const(value=-2))",
    'Program': "Program(decls=(Decl(name='x', init=None),), body=(Assign(var='x', expr=BinOp(op='+', "
               "left=Var(name='x'), right=Const(value=1))),))",
    '_Token': "_Token(kind='ident', text='x', line=1, col=2)",
    'Nop': 'Nop()',
    'AssignLabel': "AssignLabel(var='x', expr=Const(value=1))",
    'AssumeLabel': 'AssumeLabel(cond=CondNondet())',
    'AccessLabel': "AccessLabel(block='b', site=0)",
    'Edge': "Edge(src='L0', label=AssignLabel(var='x', expr=BinOp(op='-', left=Var(name='x'), right=Nondet())), "
            "dst='L1')",
    'AssertSite': "AssertSite(sid=0, loc='L1', cond=Cmp(op='<', left=Var(name='x'), right=Const(value=5)))",
    'Cfg': "Cfg(locations=('L0', 'L1'), entry='L0', edges=(Edge(src='L0', label=AssignLabel(var='x', "
           "expr=BinOp(op='-', left=Var(name='x'), right=Nondet())), dst='L1'),), asserts=(), variables=('x',))",
    'AccessIndex': "AccessIndex(locations=('s', 't'), where={'s': 0, 't': 1}, blocks={'b': 0}, "
                   "succ=(((1, 1),), ()), pred=((), (0,)))",
    'BConst': 'BConst(value=+oo)',
    'BRef': "BRef(name='x')",
    'BAdd': "BAdd(expr=BRef(name='x'), offset=-1)",
    'BMin': "BMin(left=BRef(name='x'), right=BConst(value=7))",
    'BMax': "BMax(left=BRef(name='x'), right=BConst(value=-oo))",
    'BoundSystem': "BoundSystem(equations=(('x', BConst(value=0)),))",
    'AssertVerdict': "AssertVerdict(sid=0, loc='L1', proved=True)",
    'AnalysisResult': "AnalysisResult(envs={'L1': AbstractEnv(intervals=(('x', [0, +oo]),), bottom=False)}, "
                      "asserts=(AssertVerdict(sid=0, loc='L1', proved=True),))",
    'RewriteMap': "RewriteMap(rules=(('y', LinearForm(const=0, names=('x',), coeffs=(1,), nondets=())),))",
    'BlockView': "BlockView(may_absent=True, younger=Antichain(orientation=<Orientation.KEEP_MAX: 'keep-max'>, "
                 "elements=(3, 5)))",
    'Antichain': "Antichain(orientation=<Orientation.KEEP_MAX: 'keep-max'>, elements=(3, 5))",
}


def _field_names(cls) -> tuple[str, ...]:
    return cls.__slots__ if cls is antichain.Antichain else cls._fields


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return f"unhashable: {exc}"


def test_every_record_class_has_a_sample():
    walked = {c.__name__ for c in RECORDS}
    assert walked | {"Antichain"} == set(_samples()) == set(REPRS)
    assert len(walked) == len(RECORDS)  # no two records share a name
    # The value tuples are still there, so the exemption names real classes.
    assert {f"{c.__module__}.{c.__name__}" for c in _package_classes()} >= VALUE_TUPLES


@pytest.mark.parametrize("cls", [*RECORDS, antichain.Antichain], ids=lambda c: c.__name__)
def test_record_semantics(cls):
    sample = _samples()[cls.__name__]
    assert type(sample) is cls
    assert repr(sample) == REPRS[cls.__name__]
    names = _field_names(cls)
    fields = tuple(getattr(sample, name) for name in names)
    again = _samples()[cls.__name__]
    assert again is not sample and again == sample and not (again != sample)
    assert _hash_or_error(sample) == _hash_or_error(fields) == _hash_or_error(again)
    # Equality needs the same class: not a plain tuple of the same fields,
    # on either side, and not a subclass instance with the same fields.
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    for other in (fields, twin):
        assert sample != other and other != sample
        assert not (sample == other) and not (other == sample)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(sample, name, getattr(sample, name))
    assert sample
    if not names:
        assert bool(cls()) is True


@pytest.mark.parametrize("a, b", [
    (boundsolve.BMin(boundsolve.BRef("x"), boundsolve.BRef("y")), boundsolve.BMax(boundsolve.BRef("x"), boundsolve.BRef("y"))),
    (lang.Var("x"), boundsolve.BRef("x")),
    (lang.Nondet(), lang.CondNondet()),
    (cfg.Nop(), lang.Nondet()),
    (lang.Const(3), boundsolve.BConst(3)),
])
def test_records_of_different_classes_with_equal_fields_differ(a, b):
    assert tuple(a) == tuple(b) and hash(a) == hash(b)
    assert a != b and b != a and not (a == b) and len({a, b}) == 2


def test_an_empty_antichain_is_false():
    assert not antichain.Antichain(antichain.Orientation.KEEP_MIN)


def test_importing_the_cli_loads_no_dataclasses():
    """Generating dataclass code took a third of the package's import time.
    The package root re-exports nothing: ``import absint`` alone loads no
    module of the package, and ``__version__`` is the only name it defines."""
    code = ("import sys, absint; "
            "print(sorted(m for m in sys.modules if m.startswith('absint.')), "
            "sorted(n for n in vars(absint) if not n.startswith('__')), absint.__version__); "
            "import absint.cli; print('absint.cli' in sys.modules, 'dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    expected = f"[] [] {absint.__version__}\nTrue False\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
