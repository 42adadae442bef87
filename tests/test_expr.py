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


_BIND_CASES = [
    "tanh(x)+0.15*cos(2*pi*t/7+0.3)",
    "atan(x)+0.05*cos(2*pi*t/7+5.9)",
    "x/(1+abs(x))+0.2*cos(2*pi*t/7+2.0)",
    "logfade(x)", "0.05", "cos(t)",
    "x/(t-1)", "ln(t)+x", "t^-1*x", "(t-2)^0.5+x",
]


def _outcome(node, t, x):
    try:
        return evaluate(node, t, x)
    except DomainError as e:
        return e


@pytest.mark.parametrize("text", _BIND_CASES)
def test_bind_t_evaluates_like_the_whole_tree(text):
    # the bound tree gives the same bits, or the same DomainError message,
    # on the x shapes the reduction evaluates: one sequence and a stacked pair
    g = parse(text)
    t = np.arange(7)
    bound = expr.bind_t(g, t)
    x = np.linspace(-3.0, 3.0, 7)
    for xs in (x, 1.0 + x, np.stack([x + 1e-6, x - 1e-6])):
        want, got = _outcome(g, t, xs), _outcome(bound, t, xs)
        if isinstance(want, DomainError):
            assert isinstance(got, DomainError) and str(got) == str(want)
        else:
            assert np.array_equal(got, want) and got.shape == want.shape


@pytest.mark.parametrize("text", _BIND_CASES)
def test_evaluate_gives_the_same_bits_for_an_int_and_a_float_t_grid(text):
    # the solvers keep a float64 t grid; evaluate converts an int one to it
    g = parse(text)
    x = np.linspace(-3.0, 3.0, 7)
    for node in (g, expr.bind_t(g, np.arange(7)), expr.bind_t(g, np.arange(7.0))):
        for xs in (x, np.stack([x + 1e-6, x - 1e-6])):
            want, got = _outcome(node, np.arange(7), xs), _outcome(node, np.arange(7.0), xs)
            if isinstance(want, DomainError):
                assert isinstance(got, DomainError) and str(got) == str(want)
            else:
                assert np.array_equal(got, want) and got.shape == want.shape


def test_bind_t_replaces_only_x_free_subtrees():
    bound = expr.bind_t(parse("tanh(x)+0.1*cos(2*pi*t/3)"), np.arange(3))
    assert bound.left == Call("tanh", (Var("x"),))
    assert isinstance(bound.right, Num) and not bound.right.value.flags.writeable
    np.testing.assert_array_equal(bound.right.value, 0.1 * np.cos(2 * np.pi * np.arange(3) / 3))
    # a subtree that leaves the domain stays, to raise per call
    assert expr.bind_t(parse("ln(t)+x"), np.arange(3)) == parse("ln(t)+x")


@pytest.mark.parametrize("text", ["x", "cos(t)", "tanh(x)+0.1*cos(2*pi*t/3)", "0.05"])
def test_evaluate_hands_out_no_writable_alias(text):
    # writing to a result either raises or leaves the next evaluation, the
    # bound values and the input x as they were
    g = expr.bind_t(parse(text), np.arange(3))
    x = np.array([0.5, -1.0, 2.0])
    first = evaluate(g, np.arange(3), x)
    want = first.copy()
    try:
        first[:] = 99.0
    except ValueError:
        pass
    np.testing.assert_array_equal(x, [0.5, -1.0, 2.0])
    np.testing.assert_array_equal(evaluate(g, np.arange(3), x), want)


_READ_ONLY_GRID = np.linspace(-2.0, 2.0, 5)
_READ_ONLY_GRID.flags.writeable = False

_WRAPPER_CASES = {
    "scalars": (2, 0.5),
    "lists": ([0, 1, 2], [0.5, -1.0, 2.0]),
    "int arrays": (np.arange(3), np.array([1, -2, 3])),
    "0-d arrays": (np.array(2.0), np.array(0.5)),
    "t column against x row": (np.arange(3.0)[:, None], np.linspace(-1.0, 1.0, 4)),
    "read-only float grid": (np.arange(5.0), _READ_ONLY_GRID),
}


@pytest.mark.parametrize("text", ["x", "tanh(x)+0.1*cos(2*pi*t/5)", "cos(t)", "0.05"])
@pytest.mark.parametrize("case", list(_WRAPPER_CASES))
def test_evaluate_wrapper_types_shapes_bits_and_aliasing(case, text):
    # a plain float for scalar inputs, else a float64 array of the broadcast
    # shape; the bits of an evaluation on fresh float64 copies of the whole
    # grid; and an array result is fresh or read-only
    t, x = _WRAPPER_CASES[case]
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    g = parse(text)
    got = evaluate(g, t, x)
    grid = [np.broadcast_to(np.asarray(v, dtype=float), shape).ravel().copy() for v in (t, x)]
    want = evaluate(g, *grid).reshape(shape)
    if shape == ():
        assert type(got) is float and got == want[()]
        return
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got, want)
    if got.flags.writeable:
        assert not any(np.shares_memory(got, v) for v in (t, x) if isinstance(v, np.ndarray))
    else:
        with pytest.raises(ValueError):
            got[...] = 0.0
