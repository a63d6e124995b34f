"""Property-based tests of the action language (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.core import const_value
from repro.genmodel.pipeline import action_outcomes
from repro.uml import ActionEnvironment, evaluate, parse_actions, parse_expression, unparse_block
from repro.uml.action_compiler import compile_guard
from repro.uml.actions import (
    Assign,
    BinaryOp,
    BoolLiteral,
    Call,
    Conditional,
    If,
    IntLiteral,
    Name,
    ResetTimer,
    Send,
    SetTimer,
    UnaryOp,
    While,
)

VARIABLE_NAMES = st.sampled_from(["a", "b", "c", "x", "y", "count"])

# -- expression AST strategy ----------------------------------------------------

SAFE_BINARY_OPS = ["+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]


def exprs(max_depth=4):
    base = st.one_of(
        st.integers(min_value=0, max_value=1000).map(IntLiteral),
        st.booleans().map(BoolLiteral),
        VARIABLE_NAMES.map(Name),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(SAFE_BINARY_OPS), children, children).map(
                lambda t: BinaryOp(*t)
            ),
            st.tuples(st.sampled_from(["-", "!", "~"]), children).map(
                lambda t: UnaryOp(*t)
            ),
            st.tuples(children, children, children).map(lambda t: Conditional(*t)),
            st.tuples(children, children).map(lambda t: Call("min", list(t))),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_expression_unparse_parse_roundtrip(expr):
    """unparse → parse reproduces the same AST."""
    assert parse_expression(expr.unparse()) == expr


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_expression_evaluation_deterministic(expr):
    env = ActionEnvironment({name: 3 for name in ["a", "b", "c", "x", "y", "count"]})
    first = evaluate(expr, env)
    second = evaluate(expr, ActionEnvironment(dict(env.variables)))
    assert first == second


# -- statement AST strategy ------------------------------------------------------


def stmts(depth=2):
    simple = st.one_of(
        st.tuples(VARIABLE_NAMES, exprs(2)).map(lambda t: Assign(*t)),
        st.tuples(
            st.sampled_from(["ping", "pong", "data"]),
            st.lists(exprs(2), max_size=2),
            st.sampled_from([None, "out"]),
        ).map(lambda t: Send(*t)),
        st.tuples(st.sampled_from(["t1", "t2"]), exprs(2)).map(
            lambda t: SetTimer(*t)
        ),
    )
    if depth == 0:
        return st.lists(simple, max_size=3)
    inner = stmts(depth - 1)
    compound = st.one_of(
        st.tuples(exprs(2), inner, inner).map(lambda t: If(*t)),
    )
    return st.lists(st.one_of(simple, compound), max_size=3)


@given(stmts())
@settings(max_examples=100, deadline=None)
def test_statement_unparse_parse_roundtrip(block):
    rendered = unparse_block(block)
    assert parse_actions(rendered) == list(block)


@given(
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
)
def test_division_matches_c_semantics(numerator, denominator):
    """a == (a/b)*b + a%b and both truncate toward zero, as in C, exactly
    (no float rounding), compiled and tree-walked alike."""
    if denominator == 0:
        return
    env = ActionEnvironment({"a": numerator, "b": denominator})
    quotient = evaluate(parse_expression("a / b"), env)
    remainder = evaluate(parse_expression("a % b"), env)
    assert quotient * denominator + remainder == numerator
    assert abs(remainder) < abs(denominator)
    # truncation toward zero, not floor
    magnitude = abs(numerator) // abs(denominator)
    assert quotient == (magnitude if (numerator < 0) == (denominator < 0) else -magnitude)
    assert remainder == 0 or (remainder < 0) == (numerator < 0)
    variables = {"a": numerator, "b": denominator}
    assert compile_guard(parse_expression("a / b"), ())({}, variables) == quotient
    assert compile_guard(parse_expression("a % b"), ())({}, variables) == remainder


@pytest.mark.parametrize(
    "source, a, expected",
    [
        ("a / 1", -(2**60 + 1), -(2**60 + 1)),  # float division gave -2**60
        ("a % 1", -(2**60 + 1), 0),  # ... and a remainder of -1
        ("a / -3", 10**400, -(10**400 // 3)),  # ... and an OverflowError
    ],
)
def test_division_is_exact_beyond_float_precision(source, a, expected):
    expr = parse_expression(source)
    assert evaluate(expr, ActionEnvironment({"a": a})) == expected
    assert compile_guard(expr, ())({}, {"a": a}) == expected
    assert const_value(parse_expression(source.replace("a", f"({a})"))) == expected


# -- differential: compiled functions against the tree-walking oracle -----------

#: Variables the valuations define; ``p``/``q`` are trigger parameters and
#: ``ghost`` is never defined, so reading it must fail identically.
ORACLE_VARIABLES = ["a", "b", "c", "x", "y", "count"]
ORACLE_PARAMETERS = ["p", "q"]
ORACLE_NAMES = st.sampled_from(ORACLE_VARIABLES + ORACLE_PARAMETERS + ["ghost"])
VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-(2**70), max_value=2**70),
)


def oracle_exprs():
    """Expressions over every operator and builtin, errors included."""
    base = st.one_of(
        st.integers(min_value=0, max_value=1000).map(IntLiteral),
        st.booleans().map(BoolLiteral),
        ORACLE_NAMES.map(Name),
        st.just(Call("rand16", [])),
    )
    binary_ops = SAFE_BINARY_OPS + ["/", "%"]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(binary_ops), children, children).map(
                lambda t: BinaryOp(*t)
            ),
            st.tuples(st.sampled_from(["-", "!", "~"]), children).map(
                lambda t: UnaryOp(*t)
            ),
            st.tuples(children, children, children).map(lambda t: Conditional(*t)),
            st.tuples(
                st.sampled_from(["min", "max", "abs", "crc32", "rand16"]),
                st.lists(children, min_size=1, max_size=3),
            ).map(lambda t: Call(*t)),
        )

    return st.recursive(base, extend, max_leaves=10)


def oracle_stmts(loops=True):
    """Statement lists with sends, timers (negative durations included),
    writes to trigger parameters and bounded ``while`` loops."""
    expr = oracle_exprs()
    simple = st.one_of(
        st.tuples(ORACLE_NAMES, expr).map(lambda t: Assign(*t)),
        st.tuples(
            st.sampled_from(["ping", "pong"]),
            st.lists(expr, max_size=2),
            st.sampled_from([None, "out"]),
        ).map(lambda t: Send(*t)),
        st.tuples(st.sampled_from(["t1", "t2"]), expr).map(lambda t: SetTimer(*t)),
        st.sampled_from(["t1", "t2"]).map(ResetTimer),
    )
    inner = st.lists(simple, max_size=3)
    compound = [st.tuples(expr, inner, inner).map(lambda t: If(*t))]
    if loops:
        # `k` counts passes, so each loop runs at most `limit` times
        compound.append(
            st.tuples(
                st.integers(min_value=0, max_value=3), expr, oracle_stmts(False)
            ).map(
                lambda t: While(
                    BinaryOp(
                        "&&", BinaryOp("<", Name("k"), IntLiteral(t[0])), t[1]
                    ),
                    t[2] + [Assign("k", BinaryOp("+", Name("k"), IntLiteral(1)))],
                )
            )
        )
    return st.lists(st.one_of(simple, *compound), max_size=4)


def valuations():
    return st.tuples(
        st.fixed_dictionaries({name: VALUES for name in ORACLE_VARIABLES + ["k"]}),
        st.fixed_dictionaries({name: VALUES for name in ORACLE_PARAMETERS}),
    )


@given(oracle_exprs(), valuations())
@settings(max_examples=300, deadline=None)
def test_compiled_guard_matches_tree_walker(expr, values):
    variables, parameters = values
    oracle, compiled = action_outcomes(expr, variables, parameters)
    assert compiled == oracle


@given(oracle_stmts(), valuations())
@settings(max_examples=300, deadline=None)
def test_compiled_block_matches_tree_walker(block, values):
    """Count, variables, sends, timer operations, rand16 state, and the
    exception type and message all agree."""
    variables, parameters = values
    variables["k"] = 0
    oracle, compiled = action_outcomes(block, variables, parameters)
    assert compiled == oracle
