"""The one definition of the action language's operators and builtins.

The tree-walker, the lint constant folder, compiled blocks and guards and
the C generator all read ``UNARY_OPS``, ``BINARY_OPS``, ``SHORT_CIRCUIT``
and ``BUILTINS`` of :mod:`repro.uml.actions`: changing one entry changes
every reader, and each accepts exactly the operators the table defines.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.core import const_value
from repro.codegen import CGenerator
from repro.errors import ActionRuntimeError, CodegenError
from repro.uml import action_compiler, parse_actions, parse_expression
from repro.uml.action_compiler import compile_block, compile_guard, guard_source
from repro.uml.action_lang import _Parser
from repro.uml.actions import (
    BINARY_OPS,
    BUILTINS,
    SHORT_CIRCUIT,
    UNARY_OPS,
    ActionEnvironment,
    BinaryOp,
    BoolLiteral,
    Conditional,
    IntLiteral,
    Name,
    UnaryOp,
    evaluate,
)
from tests.codegen.test_cgen import SIGNAL_IDS, component_with_machine

PARSED_BINARY = {op for level in _Parser._LEVELS for op in level}
#: operators of other languages that the action language does not define
FOREIGN_BINARY = {"**", "//", "<>", "and", "=", "&&&", ""}
FOREIGN_UNARY = {"+", "not", "--", "!!", ""}


def _wrap32_add(left, right):
    return (left + right + 2**31) % 2**32 - 2**31


def test_one_entry_swap_changes_every_reader(monkeypatch):
    expr = parse_expression("2147483647 + 1")
    guard = parse_expression("x + 1")
    block = parse_actions("y = x + 1;")
    assert evaluate(expr, ActionEnvironment()) == 2**31
    assert "_binary[" not in guard_source(guard)  # operator.add compiles inline

    monkeypatch.setitem(BINARY_OPS, "+", _wrap32_add)
    monkeypatch.setattr(action_compiler, "_CACHE", {})
    wrapped = -(2**31)
    assert evaluate(expr, ActionEnvironment()) == wrapped
    assert const_value(expr) == wrapped
    assert compile_guard(guard)({}, {"x": 2**31 - 1}) == wrapped
    environment = ActionEnvironment({"x": 2**31 - 1})
    assert compile_block(block)(environment) == 1
    assert environment.variables["y"] == wrapped
    assert "_binary['+']" in guard_source(guard)


def test_builtin_entry_swap_changes_the_compiled_call(monkeypatch):
    call = parse_expression("abs(x)")
    monkeypatch.setitem(BUILTINS, "abs", BUILTINS["abs"]._replace(function=lambda v: -v))
    monkeypatch.setattr(action_compiler, "_CACHE", {})
    assert evaluate(call, ActionEnvironment({"x": 5})) == -5
    assert compile_guard(call)({}, {"x": 5}) == -5


def _compiled_accepts(node) -> bool:
    try:
        compile_guard(node)({}, {})
    except ActionRuntimeError as error:
        assert "unknown" in str(error)
        return False
    return True


def _walker_accepts(node) -> bool:
    try:
        evaluate(node, ActionEnvironment())
    except ActionRuntimeError as error:
        assert "unknown" in str(error)
        return False
    return True


def _c_accepts(node) -> bool:
    try:
        CGenerator(component_with_machine(), SIGNAL_IDS).expr(node, ())
    except CodegenError:
        return False
    return True


def test_the_parser_and_the_table_define_the_same_operators():
    assert PARSED_BINARY == set(BINARY_OPS) | set(SHORT_CIRCUIT)
    assert not set(BINARY_OPS) & set(SHORT_CIRCUIT)
    assert set(_Parser._UNARY) == set(UNARY_OPS)


@pytest.mark.parametrize("accepts", [_walker_accepts, _compiled_accepts, _c_accepts])
def test_every_reader_accepts_exactly_the_table(accepts):
    six, three = IntLiteral(6), IntLiteral(3)
    binary = {op for op in PARSED_BINARY | FOREIGN_BINARY if accepts(BinaryOp(op, six, three))}
    unary = {op for op in set(_Parser._UNARY) | FOREIGN_UNARY if accepts(UnaryOp(op, six))}
    assert binary == set(BINARY_OPS) | set(SHORT_CIRCUIT)
    assert unary == set(UNARY_OPS)


# -- the constant folder against the tree-walker --------------------------------

#: shift counts stay small literals, so no operand grows past a few hundred bits
SHIFTS = ("<<", ">>")
SHIFT_COUNTS = st.integers(min_value=-2, max_value=40).map(IntLiteral)
OTHER_BINARY = sorted(set(BINARY_OPS) - set(SHIFTS)) + sorted(SHORT_CIRCUIT)


def closed_exprs(names=()):
    """Expressions over every operator; ``names`` become leaves as well."""
    leaves = [
        st.integers(min_value=-64, max_value=64).map(IntLiteral),
        st.booleans().map(BoolLiteral),
    ]
    if names:
        leaves.append(st.sampled_from(names).map(Name))
    literals = st.one_of(*leaves)

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(UNARY_OPS)), children).map(
                lambda t: UnaryOp(*t)
            ),
            st.tuples(st.sampled_from(OTHER_BINARY), children, children).map(
                lambda t: BinaryOp(*t)
            ),
            st.tuples(st.sampled_from(SHIFTS), children, SHIFT_COUNTS).map(
                lambda t: BinaryOp(*t)
            ),
            st.tuples(children, children, children).map(lambda t: Conditional(*t)),
        )

    return st.recursive(literals, extend, max_leaves=10)


@given(closed_exprs())
@settings(max_examples=300, deadline=None)
def test_the_folder_agrees_with_the_tree_walker(expr):
    try:
        expected = evaluate(expr, ActionEnvironment())
    except ActionRuntimeError:  # a zero divisor, a negative shift
        return
    assert const_value(expr) == expected
