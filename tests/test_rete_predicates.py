"""The match kernel's compiled tests agree with ``Predicate.apply``.

``Predicate.apply`` defines OPS5 test semantics; the kernel runs one
compiled function per predicate instead.  Every ordered pair from a
value set that mixes exact ints, floats, signed zero, NaN, a bool and
symbols (including one that spells a number and ``nil``) must give the
same answer both ways, so the fast paths and the fallback are covered.
"""

import itertools
import math

import pytest

from repro.ops5.ast import AttrTest, Constant, Disjunction, Predicate
from repro.rete.predicates import compile_constant_test, compile_predicate

VALUES = [0, 1, 2, 1.0, 2.5, -0.0, math.nan, True, "1", "x", "nil"]
PAIRS = list(itertools.product(VALUES, repeat=2))


@pytest.mark.parametrize("predicate", list(Predicate),
                         ids=lambda p: p.name)
def test_compiled_equals_apply_on_every_pair(predicate):
    fn = compile_predicate(predicate)
    for actual, expected in PAIRS:
        got = fn(actual, expected)
        assert type(got) is bool, (predicate, actual, expected)
        assert got == predicate.apply(actual, expected), (
            predicate, actual, expected)


@pytest.mark.parametrize("predicate", list(Predicate),
                         ids=lambda p: p.name)
def test_constant_test_equals_evaluate_constant(predicate):
    for value in VALUES:
        test = AttrTest("v", predicate, Constant(value))
        attr, fn, expected = compile_constant_test(test)
        assert attr == "v"
        for actual in VALUES:
            assert fn(actual, expected) == test.evaluate_constant(actual)


def test_disjunction_equals_evaluate_constant():
    test = AttrTest("v", Predicate.EQ, Disjunction((1, 2.5, "x", True)))
    _, fn, expected = compile_constant_test(test)
    for actual in VALUES:
        assert fn(actual, expected) == test.evaluate_constant(actual)
