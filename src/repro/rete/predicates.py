"""Compiled attribute tests for the flat match kernel.

:meth:`~repro.ops5.ast.Predicate.apply` is the one definition of OPS5
test semantics, and the naive matcher, the node objects and the
reference engine all call it.  Interpreted, it costs a chain of
``values_ordered`` → ``is_number`` → ``isinstance`` calls on every join
probe, so :class:`~repro.rete.kernel.ReteKernel` instead calls one plain
function per predicate, picked when the kernel is compiled.

Each function decides operands of the exact types ``int``, ``float`` and
``str`` with one direct comparison.  Every other type mix — ``bool``,
``int`` against ``float`` equality, a symbol against a number — falls
back to ``Predicate.apply`` itself, so the two cannot disagree;
``tests/test_rete_predicates.py`` checks them pair by pair.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..ops5.ast import AttrTest, Disjunction, Predicate
from ..ops5.values import Value

#: ``fn(actual, expected) -> bool``, the compiled form of a predicate.
TestFn = Callable[[Value, Value], bool]

_EQ = Predicate.EQ.apply
_NE = Predicate.NE.apply
_LT = Predicate.LT.apply
_LE = Predicate.LE.apply
_GT = Predicate.GT.apply
_GE = Predicate.GE.apply
_SAME_TYPE = Predicate.SAME_TYPE.apply


def _eq(a: Value, e: Value) -> bool:
    t = type(a)
    if t is type(e) and (t is str or t is int or t is float):
        return a == e
    return _EQ(a, e)


def _ne(a: Value, e: Value) -> bool:
    t = type(a)
    if t is type(e) and (t is str or t is int or t is float):
        return a != e
    return _NE(a, e)


def _lt(a: Value, e: Value) -> bool:
    ta = type(a)
    te = type(e)
    if (ta is int or ta is float) and (te is int or te is float):
        return a < e
    return _LT(a, e)


def _le(a: Value, e: Value) -> bool:
    ta = type(a)
    te = type(e)
    if (ta is int or ta is float) and (te is int or te is float):
        return a <= e
    return _LE(a, e)


def _gt(a: Value, e: Value) -> bool:
    ta = type(a)
    te = type(e)
    if (ta is int or ta is float) and (te is int or te is float):
        return a > e
    return _GT(a, e)


def _ge(a: Value, e: Value) -> bool:
    ta = type(a)
    te = type(e)
    if (ta is int or ta is float) and (te is int or te is float):
        return a >= e
    return _GE(a, e)


def _same_type(a: Value, e: Value) -> bool:
    ta = type(a)
    te = type(e)
    if ((ta is str or ta is int or ta is float)
            and (te is str or te is int or te is float)):
        return (ta is str) is (te is str)
    return _SAME_TYPE(a, e)


_COMPILED: Dict[Predicate, TestFn] = {
    Predicate.EQ: _eq, Predicate.NE: _ne,
    Predicate.LT: _lt, Predicate.LE: _le,
    Predicate.GT: _gt, Predicate.GE: _ge,
    Predicate.SAME_TYPE: _same_type,
}


def compile_predicate(predicate: Predicate) -> TestFn:
    """The compiled function deciding ``actual <predicate> expected``."""
    return _COMPILED[predicate]


def _in_disjunction(a: Value, values: Tuple[Value, ...]) -> bool:
    for value in values:
        if _eq(a, value):
            return True
    return False


def compile_constant_test(test: AttrTest) -> Tuple[str, TestFn, object]:
    """Lower a constant test to ``(attr, fn, expected)``.

    The kernel evaluates it as ``fn(wme value of attr, expected)``; a
    ``<< ... >>`` disjunction becomes an OPS5-equality scan over its
    values.
    """
    if isinstance(test.operand, Disjunction):
        return test.attr, _in_disjunction, test.operand.values
    return test.attr, compile_predicate(test.predicate), test.operand.value
