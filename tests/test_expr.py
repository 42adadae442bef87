import math

import numpy as np
import pytest

from perdiff import expr
from perdiff.expr import Bin, Call, DomainError, ExprError, Num, Var, evaluate, parse


def test_parse_variable():
    assert parse("x") == Var("x")
    assert parse(" t ") == Var("t")


def test_parse_structure():
    ast = parse("tanh(x)+0.1*cos(2*pi*t/3)")
    assert isinstance(ast, Bin) and ast.op == "+"
    assert ast.left == Call("tanh", (Var("x"),))
    assert isinstance(ast.right, Bin) and ast.right.op == "*"
    assert ast.right.left == Num(0.1)
    assert isinstance(ast.right.right, Call) and ast.right.right.fn == "cos"


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0, 0.0) == 512.0


def test_precedence():
    assert evaluate(parse("-2^2"), 0, 0.0) == -4.0     # ^ binds before unary -
    assert evaluate(parse("2*-3"), 0, 0.0) == -6.0
    assert evaluate(parse("1+2*3^2"), 0, 0.0) == 19.0
    assert evaluate(parse("2^-1"), 0, 0.0) == 0.5


@pytest.mark.parametrize("text,t,x,expected", [
    ("x", 7, 2.5, 2.5),
    ("tanh(x)+0.1*cos(2*pi*t/3)", 0, 0.0, 0.1),
    ("sign(x)*min(abs(x),1)", 0, -5.0, -1.0),
    ("max(t,x)", 3, 1.0, 3.0),
    ("atan(x)/pi", 0, 1.0, 0.25),
])
def test_eval_values(text, t, x, expected):
    assert evaluate(parse(text), t, x) == pytest.approx(expected, abs=1e-15)


def test_eval_is_pure():
    ast = parse("sin(x)+t")
    a = evaluate(ast, 2, 0.3)
    b = evaluate(ast, 2, 0.3)
    assert a == b


def test_eval_vectorized_matches_scalar():
    ast = parse("tanh(x)+0.1*cos(2*pi*t/3)+x^2/4")
    ts = np.arange(6)
    xs = np.linspace(-2, 2, 6)
    vec = evaluate(ast, ts, xs)
    scal = [evaluate(ast, int(t), float(x)) for t, x in zip(ts, xs)]
    np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


@pytest.mark.parametrize("bad,offset", [
    ("2+", 2),
    ("(1+2", 4),
    ("1 @ 2", 2),
    ("foo(x)", 0),
    ("y+1", 0),
    ("min(1)", 0),
    ("sin(1,2)", 0),
])
def test_parse_errors_carry_offset(bad, offset):
    with pytest.raises(ExprError) as exc:
        parse(bad)
    assert exc.value.pos == offset


@pytest.mark.parametrize("bad", ["ln(0-1)", "1/(x-x)", "(0-2)^0.5", "exp(x^9)"])
def test_eval_domain_errors(bad):
    with pytest.raises(DomainError):
        evaluate(parse(bad), 0, 1000.0)


def test_logfade_continuity_at_branch_points():
    k = expr._logfade_k
    e = math.e
    assert float(k(e)) == pytest.approx(1.0, abs=1e-15)
    assert float(k(-e)) == pytest.approx(-1.0, abs=1e-15)
    assert float(k(np.nextafter(e, 0))) == pytest.approx(1.0, abs=1e-15)
    assert float(k(np.nextafter(-e, 0))) == pytest.approx(-1.0, abs=1e-15)


def test_logfade_values():
    ast = parse("logfade(x)")
    assert evaluate(ast, 0, 0.0) == pytest.approx(0.1)
    # k fades like 1/ln|x|
    assert evaluate(ast, 0, 1e6) == pytest.approx(1e6 / math.log(1e6) + 0.1 * 1e3 + 0.1, rel=1e-12)
    val = evaluate(ast, 0, 5.0)
    assert val == pytest.approx(5.0 / math.log(5.0) + 0.1 * math.sqrt(5.0) + 0.1)
