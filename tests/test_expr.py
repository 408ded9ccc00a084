"""Expression language: parsing, precedence, evaluation, error positions."""

from fractions import Fraction as F

import pytest

from modfix import (EXACT, FLOAT, ExprError, NonFiniteError,
                    parse_expression, parse_predicate)
from modfix.expr import BinOp, Cmp, Num, Piecewise, Var, eval_expr


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
