"""Expression language: parsing, precedence, evaluation, error positions."""

import functools
import struct
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfix import (EXACT, FLOAT, ExprError, NonFiniteError, has_edge,
                    load_config, parse_expression, parse_predicate)
from modfix.backend import Backend, Number
from modfix.expr import (_OPS, BinOp, Cmp, Neg, Num, Piecewise, Pow, Var,
                         _lower, eval_expr)


def ev(src, x, backend=EXACT, variables=("x",)):
    return eval_expr(parse_expression(src, variables), {"x": x}, backend)


def test_simple_division_ast():
    assert parse_expression("x/3") == BinOp("/", Var("x"), Num(F(3)))


def test_piecewise_ast_two_branches():
    ast = parse_expression("piecewise(x = 1 -> 1/10, else -> 1/2)")
    assert isinstance(ast, Piecewise)
    guard, first = ast.branches[0]
    assert guard == Cmp("=", Var("x"), Num(F(1)))
    assert first == BinOp("/", Num(F(1)), Num(F(10)))
    assert ast.branches[1][0] is None


# source, message, position
SYNTAX_ERRORS = [
    ("x +", "expected a value", 3),
    ("(x", "expected ')'", 2),
    ("piecewise(x = 1 2)", "expected '->'", 16),
    ("piecewise(else -> 1, x < 0 -> 2)", "the else branch must come last", 19),
    ("x + $", "unexpected character '$'", 4),
    ("é", "unexpected character 'é'", 0),
    ("x +\n$", "unexpected character '$'", 4),
    ("1 + 2 3", "unexpected trailing input '3'", 6),
]


def test_syntax_error_position():
    for src, message, pos in SYNTAX_ERRORS:
        with pytest.raises(ExprError) as err:
            parse_expression(src)
        assert str(err.value) == f"{message} at position {pos}", src
        assert err.value.pos == pos


def test_unknown_identifier_rejected():
    with pytest.raises(ExprError):
        parse_expression("x + t")
    with pytest.raises(ExprError):
        parse_expression("y", variables=("x",))
    parse_expression("y", variables=("x", "y"))  # allowed when declared


def test_precedence_and_associativity():
    assert ev("1 + 2 * 3", F(0)) == 7
    assert ev("2 * x ^ 2", F(3)) == 18          # ^ binds over *
    assert ev("-x^2", F(3)) == -9               # unary minus outside the power
    assert ev("10 - 3 - 2", F(0)) == 5          # left associative
    assert ev("12 / 3 / 2", F(0)) == 2
    assert ev("(1 + 2) * 3", F(0)) == 9


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExprError):
        parse_expression("x ^ 1.5")
    with pytest.raises(ExprError):
        parse_expression("x ^ x")
    with pytest.raises(ExprError):
        parse_expression("x ^ (2)")


def test_decimals_are_exact_on_exact_backend():
    assert ev("0.5 * x", F(1, 3)) == F(1, 6)
    assert ev("64/81", F(0)) == F(64, 81)


def test_division_by_zero_at_evaluation():
    ast = parse_expression("1/(x - 1)")
    assert eval_expr(ast, {"x": F(3)}, EXACT) == F(1, 2)
    with pytest.raises(ExprError):
        eval_expr(ast, {"x": F(1)}, EXACT)


def test_float_power_overflow_is_non_finite():
    with pytest.raises(NonFiniteError, match=r"\(-1e\+200\)\^2 overflows"):
        ev("x^2", -1e200, FLOAT)
    assert ev("x^2", F(10) ** 200) == F(10) ** 400


def test_float_constant_beyond_double_range_is_non_finite():
    big = "1" + "0" * 400
    with pytest.raises(NonFiniteError, match="overflows a double"):
        ev(f"x + {big}", 1.0, FLOAT)
    assert ev(f"x + {big}", F(1)) == 1 + F(big)


def test_piecewise_evaluation_order_and_fallthrough():
    src = "piecewise(x < 0 -> 0 - 1, x = 0 -> 0, else -> 1)"
    assert ev(src, F(-5)) == -1
    assert ev(src, F(0)) == 0
    assert ev(src, F(7)) == 1


def test_piecewise_without_else_can_fail_at_runtime():
    ast = parse_expression("piecewise(x < 0 -> 1)")
    with pytest.raises(ExprError):
        eval_expr(ast, {"x": F(2)}, EXACT)


def test_else_must_come_last():
    with pytest.raises(ExprError):
        parse_expression("piecewise(else -> 1, x < 0 -> 2)")


def test_trailing_input_rejected():
    with pytest.raises(ExprError):
        parse_expression("1 + 2 3")
    with pytest.raises(ExprError):
        parse_expression("x) ")


def test_unexpected_character():
    with pytest.raises(ExprError) as err:
        parse_expression("x + $")
    assert err.value.pos == 4


def test_predicate_requires_comparison():
    pred = parse_predicate("x + 1 <= y")
    assert pred.op == "<="
    with pytest.raises(ExprError):
        parse_predicate("x + y")


def test_predicate_evaluation():
    pred = parse_predicate("x + 1 <= y")
    assert eval_expr(pred, {"x": F(0), "y": F(1)}, EXACT) is True
    assert eval_expr(pred, {"x": F(1), "y": F(1)}, EXACT) is False
    lt = parse_predicate("x < y")
    assert eval_expr(lt, {"x": F(1), "y": F(1)}, EXACT) is False


def test_evaluator_agrees_with_builtin_maps():
    # oracle: the structured descriptors evaluated directly
    from modfix import affine_map, scalar_map
    from modfix.sampling import SplitMix64

    third_expr = parse_expression("x/3")
    third_map = affine_map(F(1, 3), F(0))
    pw_expr = parse_expression("piecewise(x = 1 -> 1/10, else -> 1/2)")
    pw_map = scalar_map(lambda t: F(1, 10) if t == 1 else F(1, 2))

    rng = SplitMix64(99)
    for _ in range(1000):
        x = rng.uniform(EXACT, -5, 5)
        assert eval_expr(third_expr, {"x": x}, EXACT) == third_map((x,))[0]
        assert eval_expr(pw_expr, {"x": x}, EXACT) == pw_map((x,))[0]
    # the spike branch itself
    assert eval_expr(pw_expr, {"x": F(1)}, EXACT) == F(1, 10)


def test_float_backend_evaluation_close_to_exact():
    ast = parse_expression("x/3 + 1/7")
    exact = eval_expr(ast, {"x": F(1, 2)}, EXACT)
    approx = eval_expr(ast, {"x": 0.5}, FLOAT)
    assert abs(approx - float(exact)) < 1e-12


# -- the compiled closures against the tree walker they replaced -----------

def reference_eval(node, env: dict, backend: Backend) -> Number:
    """The tree walker ``eval_expr`` was before expressions were compiled,
    kept verbatim as the oracle of the compiled closures."""
    if isinstance(node, Num):
        return backend.number(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -reference_eval(node.operand, env, backend)
    if isinstance(node, (BinOp, Cmp)):
        left = reference_eval(node.left, env, backend)
        right = reference_eval(node.right, env, backend)
        if node.op == "/" and right == 0:
            raise ExprError("division by zero", node.pos)
        return _OPS[node.op](left, right)
    if isinstance(node, Pow):
        base = reference_eval(node.base, env, backend)
        try:
            return base ** node.exponent
        except OverflowError:
            raise NonFiniteError(f"({base!r})^{node.exponent} overflows")
    if isinstance(node, Piecewise):
        for guard, expr in node.branches:
            if guard is None or reference_eval(guard, env, backend):
                return reference_eval(expr, env, backend)
        raise ExprError("no piecewise branch matched", node.pos)
    raise TypeError(f"not an expression node: {node!r}")


def outcome(fn):
    """What a call gives, comparable across evaluators: the value with its
    type (a float by its bits, so -0.0 and NaN count), or the exception's
    type, message and position."""
    try:
        v = fn()
    except Exception as e:  # noqa: BLE001 - every error must match
        return ("raised", type(e), str(e), getattr(e, "pos", None))
    bits = struct.pack("<d", v) if isinstance(v, float) else v
    return ("value", type(v), bits)


# int, Fraction and float values, with zeros (division), NaN and infinities
# (piecewise guards), and a rational beyond the double range (a constant
# that overflows a double on the float backend)
values = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1e200, F(10) ** 400, -F(10) ** 400]))
positions = st.integers(0, 40)


@functools.lru_cache(maxsize=None)
def asts(depth: int):
    """Expression ASTs of depth <= ``depth`` over the variables x and y."""
    leaves = st.one_of(st.builds(Num, values, positions),
                       st.builds(Var, st.sampled_from(["x", "y"]), positions))
    if depth == 0:
        return leaves
    sub = asts(depth - 1)
    guards = st.builds(Cmp, st.sampled_from(["<=", "<", "="]), sub, sub,
                       positions)
    branches = st.lists(st.tuples(st.one_of(st.none(), guards), sub),
                        min_size=1, max_size=3)
    return st.one_of(
        leaves,
        st.builds(Neg, sub, positions),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), sub, sub,
                  positions),
        st.builds(Pow, sub, st.integers(0, 3), positions),
        st.builds(Piecewise, branches.map(tuple), positions))


@given(st.one_of(asts(5), st.builds(Cmp, st.sampled_from(["<=", "<", "="]),
                                    asts(4), asts(4), positions)),
       st.lists(st.fixed_dictionaries({"x": values, "y": values}),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_compiled_expression_matches_tree_walker(node, envs):
    for backend in (EXACT, FLOAT):
        f = _lower(node, backend)  # compiled once, evaluated per environment
        for env in envs:
            expected = outcome(lambda: reference_eval(node, env, backend))
            assert outcome(lambda: f(env)) == expected
            assert outcome(lambda: eval_expr(node, env, backend)) == expected


def test_compiled_errors_keep_message_and_position():
    ast = parse_expression("1 + x/(x - 2)")
    for backend in (EXACT, FLOAT):
        f = _lower(ast, backend)
        with pytest.raises(ExprError) as err:
            f({"x": backend.number(2)})
        assert str(err.value) == "division by zero at position 5"
        assert err.value.pos == 5
        assert outcome(lambda: f({"x": backend.number(3)})) == outcome(
            lambda: reference_eval(ast, {"x": backend.number(3)}, backend))

    f = _lower(parse_expression("x^2"), FLOAT)
    with pytest.raises(NonFiniteError, match=r"^\(-1e\+200\)\^2 overflows$"):
        f({"x": -1e200})

    ast = parse_expression("2 * piecewise(x < 0 -> 1, x = 0 -> 2)")
    f = _lower(ast, EXACT)
    assert f({"x": F(0)}) == 4
    with pytest.raises(ExprError) as err:
        f({"x": F(1)})
    assert str(err.value) == "no piecewise branch matched at position 4"
    assert err.value.pos == 4


def test_overflowing_literal_raises_only_when_its_branch_is_taken():
    big = "1" + "0" * 400
    ast = parse_expression(f"piecewise(x < 0 -> {big}, else -> x/2)")
    f = _lower(ast, FLOAT)  # compiling does not evaluate the literal
    assert f({"x": 3.0}) == 1.5
    with pytest.raises(NonFiniteError, match="overflows a double"):
        f({"x": -1.0})
    assert _lower(ast, EXACT)({"x": F(-1)}) == F(big)

    # a config holding it in a branch its samples and orbit never take
    # loads and runs on the float backend
    cfg = load_config({
        "space": {"dimension": 1, "backend": "float"},
        "modular": {"expr": "x^2"},
        "map": {"expr": f"piecewise(x < -10 -> {big}, else -> x/3)"},
        "graph": {"kind": "custom",
                  "edge": f"x <= y + piecewise(x < -10 -> {big}, else -> 1)"},
        "contraction": {"banach": {"k": "1/2", "a": "1/2", "b": 1}}})
    assert cfg.map((3.0,)) == (1.0,)
    assert has_edge(cfg.graph, (0.0,), (0.5,))
    with pytest.raises(NonFiniteError, match="overflows a double"):
        cfg.map((-11.0,))


@pytest.mark.parametrize("node", ["x", 3, None])
def test_lower_rejects_what_is_not_a_node(node):
    with pytest.raises(TypeError) as e:
        _lower(node, EXACT)
    assert str(e.value) == f"not an expression node: {node!r}"
