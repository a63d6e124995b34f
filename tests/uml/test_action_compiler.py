"""Compiled guards and action blocks: oracle agreement, caches, safety."""

import random
import re

import pytest

from repro.cases.tutmac import TutmacParameters, build_tutmac
from repro.cases.tutwlan import build_paper_mapping, exploration_factory
from repro.genmodel import config_for_seed, generate_model
from repro.genmodel.pipeline import action_outcomes, action_sites
from repro.simulation.system import SystemSimulation
from repro.uml import action_compiler, action_lang, parse_actions, parse_expression
from repro.uml.action_compiler import block_source, compile_block, compile_guard
from repro.uml.actions import (
    MAX_LOOP_ITERATIONS,
    ActionEnvironment,
    Assign,
    BinaryOp,
    Call,
    IntLiteral,
    Name,
    ResetTimer,
    Send,
    SetTimer,
    UnaryOp,
    c_div,
    c_mod,
    execute,
)


def both(node, variables=None, parameters=None):
    oracle, compiled = action_outcomes(node, variables or {}, parameters or {})
    assert compiled == oracle
    return compiled


# -- the TUTMAC model against the oracle ----------------------------------------


def _realistic(rng, name, declared):
    """Values of the model's own scale, so its loops stay short."""
    draw = rng.randrange(4)
    if draw == 0 and name in declared:
        return declared[name]
    if draw == 1:
        return rng.choice((0, 1, -1))
    return rng.randrange(0, 1600)


def _actions(application):
    """The ids of every non-empty block and every guard of the machines."""
    nodes = set()
    for process in application.processes.values():
        machine = process.component.classifier_behavior
        for state in machine.states:
            nodes.update(id(block) for block in (state.entry, state.exit) if block)
        for transition in machine.transitions:
            if transition.effect:
                nodes.add(id(transition.effect))
            if transition.guard is not None:
                nodes.add(id(transition.guard))
    return nodes


@pytest.mark.parametrize("arq", [False, True], ids=["plain", "arq"])
def test_every_tutmac_block_and_guard_matches_the_oracle(arq):
    application = build_tutmac(params=TutmacParameters(arq_enabled=arq))
    rng = random.Random(2005)
    sites = list(action_sites(application))
    # each block and guard, once per scope the simulator compiles it for
    assert {id(node) for _, node, _, _ in sites} == _actions(application)
    assert len({(id(node), names) for _, node, names, _ in sites}) == len(sites)
    for where, node, params, declared in sites:
        for _ in range(6):
            variables = {name: _realistic(rng, name, declared) for name in declared}
            parameters = {name: _realistic(rng, name, {}) for name in params}
            oracle, compiled = action_outcomes(node, variables, parameters)
            assert compiled == oracle, where


# -- semantics corners ----------------------------------------------------------


def test_loop_bound_matches_the_oracle():
    block = parse_actions("x = 0; while (1) { x = x + 1; }")
    result, variables, *_ = both(block)
    assert result == (
        "ActionRuntimeError",
        f"while loop exceeded {MAX_LOOP_ITERATIONS} iterations",
    )
    assert variables == {"x": MAX_LOOP_ITERATIONS}


def test_statement_counts_follow_the_taken_path():
    block = parse_actions(
        "i = 0; while (i < 3) { if (i == 1) { a = 1; b = 2; } i = i + 1; } c = 3;"
    )
    # 1 (i=0) + 1 (while) + 3 passes * (1 + if + i=i+1) + 2 (taken branch) + 1 (c)
    assert both(block)[0] == 1 + 1 + 3 * 3 + 2 + 1


def test_parameters_shadow_variables_and_are_read_only():
    assert both(parse_expression("x + 1"), {"x": 1}, {"x": 41})[0] == 42
    result = both(parse_actions("y = x; x = 2;"), {"x": 1}, {"x": 5})
    assert result[0] == (
        "ActionRuntimeError",
        "cannot assign to trigger parameter 'x'",
    )
    assert result[1] == {"x": 1, "y": 5}


def test_value_is_evaluated_before_the_parameter_check():
    result = both(parse_actions("x = 1 / 0;"), {}, {"x": 5})
    assert result[0] == ("ActionRuntimeError", "division by zero")


def test_rand16_state_is_shared_across_blocks_of_one_step():
    environment = ActionEnvironment()
    first = compile_block(parse_actions("a = rand16();"), ())
    second = compile_block(parse_actions("b = rand16();"), ())
    first(environment)
    second(environment)
    reference = ActionEnvironment()
    execute(parse_actions("a = rand16(); b = rand16();"), reference)
    assert environment.variables == reference.variables
    assert environment.variables["a"] != environment.variables["b"]


def test_every_guard_evaluation_starts_from_the_same_rand16_seed():
    guard = compile_guard(parse_expression("rand16() + rand16()"), ())
    assert guard({}, {}) == guard({}, {})
    assert guard({}, {}) == both(parse_expression("rand16() + rand16()"))[0]


@pytest.mark.parametrize(
    "source",
    [
        "min()",
        "max()",
        "abs()",
        "abs(1, 2)",
        "crc32()",
        "crc32(1, 2, 3)",
        "sqrt(2)",
        "min(3)",
        "max(1, 2, 3)",
        "rand16(1)",
    ],
)
def test_builtin_misuse_raises_like_the_oracle(source):
    result = both(parse_expression(source))[0]
    assert isinstance(result, tuple)
    assert result[0] == "ActionRuntimeError"


@pytest.mark.parametrize("source", ["1 << -1", "8 >> -2", "x << y"])
def test_a_negative_shift_count_raises_like_the_oracle(source):
    result = both(parse_expression(source), {"x": 1, "y": -1})[0]
    assert result == ("ActionRuntimeError", "negative shift count")


def test_arguments_are_evaluated_before_a_builtin_fails():
    block = parse_actions("x = abs(1, ghost);")
    assert both(block)[0] == ("ActionRuntimeError", "undefined name 'ghost'")


def test_long_left_chains_compile_flat():
    # deeper than the 200 parentheses Python's parser accepts
    block = parse_actions("x = " + " + ".join(["1"] * 300) + ";")
    assert both(block)[1] == {"x": 300}


# -- constant divisors compile inline ---------------------------------------------

DIVISORS = (1, 7, 13, 64, 97)


def dividends(divisor):
    magnitudes = (0, 1, divisor - 1, divisor, divisor + 1, 2**40)
    return sorted({sign * value for value in magnitudes for sign in (1, -1)})


@pytest.mark.parametrize("divisor", DIVISORS)
def test_constant_divisors_truncate_like_c(divisor):
    block = parse_actions(f"q = x / {divisor}; r = x % {divisor};")
    guard_q = compile_guard(parse_expression(f"x / {divisor}"), ())
    guard_r = compile_guard(parse_expression(f"x % {divisor}"), ())
    for x in dividends(divisor):
        expected = {"x": x, "q": c_div(x, divisor), "r": c_mod(x, divisor)}
        assert both(block, {"x": x})[1] == expected
        assert guard_q({}, {"x": x}) == c_div(x, divisor)
        assert guard_r({}, {"x": x}) == c_mod(x, divisor)


def test_a_constant_divisor_compiles_without_the_helpers():
    source = block_source(parse_actions("q = x / 7; r = (x + 1) % 64;"), ())
    assert "_binary[" not in source


def test_the_dividend_is_evaluated_once():
    block = parse_actions("a = 40 + (rand16() % 60); b = rand16();")
    _, variables, _, _, rand_state = both(block)
    reference = ActionEnvironment()
    execute(block, reference)
    assert variables == reference.variables
    assert rand_state == reference.rand_state


@pytest.mark.parametrize("text", ["x % 0", "x / 0", "x % -3", "x / -3", "x % y"])
def test_other_divisors_keep_the_helpers(text):
    source = block_source(parse_actions(f"r = {text};"), ())
    op = "%" if "%" in text else "/"
    assert f"_binary[{op!r}](" in source
    for x in (-7, 7):
        result, variables, *_ = both(parse_actions(f"r = {text};"), {"x": x, "y": -3})
        if text.endswith(" 0"):
            message = "modulo by zero" if "%" in text else "division by zero"
            assert result == ("ActionRuntimeError", message)
        else:
            helper = c_mod if "%" in text else c_div
            assert variables["r"] == helper(x, -3)


# -- hostile AST strings ---------------------------------------------------------

HOSTILE = [
    "x) or __import__('os')",
    "x'] or __import__('os').system('true') or V['",
    'q"; import os; "',
    "back\\slash\nnewline",
    "__builtins__",
]


@pytest.mark.parametrize("text", HOSTILE)
def test_hostile_names_are_only_ever_data(text):
    result = both(BinaryOp("+", Name(text), IntLiteral(1)))[0]
    assert result == ("ActionRuntimeError", f"undefined name {text!r}")
    assert both(Name(text), {text: 7})[0] == 7
    block = [
        Assign(text, IntLiteral(3)),
        Send(text, [Name(text)], text),
        SetTimer(text, IntLiteral(5)),
        ResetTimer(text),
    ]
    result, variables, sent, timer_ops, _ = both(block)
    assert result == 4
    assert variables == {text: 3}
    assert sent == [(text, (3,), text)]
    assert timer_ops == [("set", text, 5), ("reset", text, 0)]
    # the string reaches the generated source only as a literal
    assert repr(text) in block_source(block, ())


def test_hostile_operators_and_builtins_raise_like_the_oracle():
    hostile = "+ __import__('os').getpid() +"
    for expr in (
        BinaryOp(hostile, IntLiteral(1), IntLiteral(2)),
        UnaryOp(hostile, IntLiteral(1)),
        Call(hostile, [IntLiteral(1)]),
    ):
        result = both(expr)[0]
        assert result[0] == "ActionRuntimeError"
        assert hostile in result[1]


def test_generated_code_reaches_no_builtins():
    guard = compile_guard(parse_expression("x"), ())
    assert guard.__globals__["__builtins__"] == {}
    with pytest.raises(TypeError):
        compile_guard(Name(object()), ())


# -- caches ---------------------------------------------------------------------


def test_equal_blocks_share_one_compiled_function():
    source = "hits = hits + 1; send ping(hits) via out;"
    assert compile_block(parse_actions(source), ()) is compile_block(
        parse_actions(source), ()
    )
    # a different spelling of the same block still shares the key
    spaced = "hits = hits+1;\n  send ping(hits) via out; // again"
    assert compile_block(parse_actions(spaced), ()) is compile_block(
        parse_actions(source), ()
    )


def test_each_key_compiles_under_a_file_name_of_its_own():
    """``pstats`` keys a function by file, line and name, so two cached
    functions must differ in file name; it carries no model string."""
    block = parse_actions("secret_name = 1;")
    functions = [
        compile_block(block, ()),
        # the same source: "x" is in scope but unread, and only the key differs
        compile_block(block, ("x",)),
        compile_guard(parse_expression("secret_name"), ()),
    ]
    names = [function.__code__.co_filename for function in functions]
    assert len(set(names)) == 3
    for name in names:
        assert re.fullmatch(r"<action-language:[0-9a-f]{16}>", name), name


@pytest.mark.parametrize(
    "first, second",
    [
        ([Send("s", [], None)], [Send("s", [], "")]),
        ([Send("s", [], "out")], [Send("s", [IntLiteral(1)], "out")]),
        ([Assign("x", IntLiteral(1))], [Assign("y", IntLiteral(1))]),
        ([SetTimer("t", IntLiteral(1))], [SetTimer("u", IntLiteral(1))]),
        # unparse() spells both "(a + b)": the cache key must not
        (Name("(a + b)"), BinaryOp("+", Name("a"), Name("b"))),
        (Call("min", [Name("a"), Name("b")]), Call("min", [Name("a, b")])),
    ],
)
def test_asts_that_differ_anywhere_get_their_own_function(first, second):
    values = {"a": 1, "b": 2, "(a + b)": 30, "a, b": 40}
    # `first` is compiled (and cached) before `second` is looked up
    assert both(first, values) != both(second, values)


def test_parse_memo_returns_fresh_lists_over_shared_nodes():
    first = parse_actions("a = 1; b = 2;")
    second = parse_actions("a = 1; b = 2;")
    assert first is not second
    assert all(x is y for x, y in zip(first, second))
    first.append(None)  # callers may extend their own list
    assert len(parse_actions("a = 1; b = 2;")) == 2
    assert parse_expression("a < 3") is parse_expression("a < 3")


def test_caches_are_bounded(monkeypatch):
    monkeypatch.setattr(action_compiler, "COMPILE_CACHE_SIZE", 4)
    monkeypatch.setattr(action_compiler, "_CACHE", {})
    monkeypatch.setattr(action_lang, "PARSE_CACHE_SIZE", 4)
    monkeypatch.setattr(action_lang, "_BLOCKS", {})
    monkeypatch.setattr(action_lang, "_EXPRESSIONS", {})
    hot = compile_block(parse_actions("x = 0;"), ())
    for value in range(1, 10):
        compile_block(parse_actions(f"x = {value};"), ())
        compile_guard(parse_expression(f"x < {value}"), ())
        assert len(action_compiler._CACHE) <= 4
        assert len(action_lang._BLOCKS) <= 4
        assert len(action_lang._EXPRESSIONS) <= 4
        # the block in use all along is never the one evicted
        assert compile_block(parse_actions("x = 0;"), ()) is hot
    assert "x = 9;" in action_lang._BLOCKS
    assert "x = 1;" not in action_lang._BLOCKS


def test_cache_sizes_stay_within_bounds_over_the_generated_corpus():
    for seed in range(120):
        application = generate_model(config_for_seed(seed)).application
        for _, node, names, _ in action_sites(application):
            if isinstance(node, list):
                compile_block(node, names)
            else:
                compile_guard(node, names)
        assert len(action_compiler._CACHE) <= action_compiler.COMPILE_CACHE_SIZE
        assert len(action_lang._BLOCKS) <= action_lang.PARSE_CACHE_SIZE
        assert len(action_lang._EXPRESSIONS) <= action_lang.PARSE_CACHE_SIZE


def test_rebuilt_tutmac_parses_and_compiles_nothing_new(monkeypatch):
    """A candidate rebuild shares the first build's ASTs and functions."""

    def simulate_fresh_build():
        application, platform = exploration_factory()
        mapping = build_paper_mapping(application, platform)
        SystemSimulation(application, platform, mapping).run(20_000)

    simulate_fresh_build()
    misses = []
    for module, name in (
        (action_lang, "_parse_block"),
        (action_lang, "_parse_expression"),
        (action_compiler, "_load"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module,
            name,
            lambda *args, original=original, name=name: misses.append(name)
            or original(*args),
        )
    simulate_fresh_build()
    assert misses == []
