"""Parsing and evaluation of scalar nonlinearities g(t, x).

Problems carry their nonlinearity as expression text, so problem files are
pure data. The grammar is a small arithmetic language over the two free
variables ``t`` and ``x``:

* binary operators ``+ - * / ^`` with the usual precedence; ``^`` binds
  tightest and is right-associative, unary minus sits between ``^`` and
  ``* /``;
* calls ``sin cos tan tanh atan exp ln abs sign`` (unary), ``min max``
  (binary), plus the built-in test nonlinearity ``logfade`` (see below);
* the constant ``pi``; numbers in the usual decimal/scientific forms.

ASTs are immutable after parsing and evaluation is pure, so parsed
expressions can be shared freely between threads.

``bind_t(g, t)`` evaluates g's largest x-free subtrees (its forcing) once at
t; the bound tree gives the same bits at that t and walks only the x part.

``logfade(x)`` is a ready-made slowly-fading nonlinearity: k(x)*x +
0.1*|x|^0.5 + 0.1 where k is -1/ln(-x) for x <= -e, x/e in between, and
1/ln(x) for x >= e. The factor k tends to zero at +-infinity, which makes
the whole expression grow slower than any linear function while not being
dominated by any sublinear power bound.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

_FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "tanh": 1,
    "atan": 1,
    "exp": 1,
    "ln": 1,
    "abs": 1,
    "sign": 1,
    "logfade": 1,
    "min": 2,
    "max": 2,
}

_VARIABLES = ("t", "x")

LOGFADE_M1 = 0.1
LOGFADE_M2 = 0.1
LOGFADE_BETA = 0.5

# samples per chunk of an evaluation at every t (``envelope``); also the
# symbol entries per chunk in kernel_dims and the 2x2 blocks per chunk in
# norm_bound_mp_iq (linear)
_CHUNK_ENTRIES = 1 << 16


class ExprError(ValueError):
    """Problem with the expression text; carries the byte offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class DomainError(ArithmeticError):
    """Evaluation hit a point outside a function's domain (ln<=0, x/0, ...)."""


# -- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float | np.ndarray  # an array once bound to t (``bind_t``)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Node = Num | Var | Neg | Bin | Call


# -- tokenizer / parser ------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if kind != "op" or val != value:
            raise ExprError(f"expected {value!r}, found {val!r}" if val else f"expected {value!r}", at)

    def parse(self) -> Node:
        node = self.sum()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing {val!r}", at)
        return node

    def sum(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            # right-associative; the exponent may carry its own unary minus
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, at = self.next()
        if kind == "num":
            try:
                return Num(float(val))
            except ValueError:
                raise ExprError(f"bad number literal {val!r}", at) from None
        if kind == "name":
            if val == "pi":
                return Num(math.pi)
            if val in _VARIABLES:
                return Var(val)
            if val in _FUNCTIONS:
                self.expect("(")
                args = [self.sum()]
                while True:
                    k2, v2, a2 = self.next()
                    if k2 == "op" and v2 == ",":
                        args.append(self.sum())
                    elif k2 == "op" and v2 == ")":
                        break
                    else:
                        raise ExprError("expected ',' or ')' in call", a2)
                if len(args) != _FUNCTIONS[val]:
                    raise ExprError(
                        f"{val} takes {_FUNCTIONS[val]} argument(s), got {len(args)}", at
                    )
                return Call(val, tuple(args))
            raise ExprError(f"unknown identifier {val!r}", at)
        if kind == "op" and val == "(":
            node = self.sum()
            self.expect(")")
            return node
        raise ExprError(f"unexpected {val!r}" if val else "unexpected end of input", at)


def parse(text: str) -> Node:
    """Parse expression text into an immutable AST.

    Raises ExprError (with byte offset) on syntax problems, unknown
    identifiers, or calls with the wrong number of arguments.
    """
    return _Parser(text).parse()


# -- evaluation --------------------------------------------------------


def _logfade_k(x):
    x = np.asarray(x, dtype=float)
    out = x / math.e
    hi = x >= math.e
    out = np.where(hi, 1.0 / np.log(np.where(hi, x, math.e)), out)
    lo = x <= -math.e
    out = np.where(lo, -1.0 / np.log(np.where(lo, -x, math.e)), out)
    return out


def _logfade(x):
    x = np.asarray(x, dtype=float)
    return _logfade_k(x) * x + LOGFADE_M1 * np.abs(x) ** LOGFADE_BETA + LOGFADE_M2


# the calls that are one numpy ufunc of their argument, with no domain test
_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh, "atan": np.arctan,
           "exp": np.exp, "abs": np.abs, "sign": np.sign}


def _ev(node: Node, t, x):
    kind = type(node)
    if kind is Var:
        return t if node.name == "t" else x
    if kind is Num:
        return node.value
    if kind is Bin:
        op, a = node.op, _ev(node.left, t, x)
        b = _ev(node.right, t, x)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if (np.asarray(b) == 0.0).any():
                raise DomainError("division by zero")
            return a / b
        # '^'
        a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if ((a_arr < 0.0) & (b_arr != np.floor(b_arr))).any():
            raise DomainError("negative base with non-integer exponent")
        if ((a_arr == 0.0) & (b_arr < 0.0)).any():
            raise DomainError("zero raised to a negative power")
        # numpy pow overflows to inf (caught by the final finiteness check)
        # where the scalar builtin would raise OverflowError
        return np.power(a_arr, b_arr)
    if kind is Neg:
        return -_ev(node.arg, t, x)
    # calls
    fn, a = node.fn, _ev(node.args[0], t, x)
    ufunc = _UFUNCS.get(fn)
    if ufunc is not None:
        return ufunc(a)
    if fn == "ln":
        if (np.asarray(a) <= 0.0).any():
            raise DomainError("ln of a non-positive value")
        return np.log(a)
    if fn == "logfade":
        return _logfade(a)
    if fn == "min":
        return np.minimum(a, _ev(node.args[1], t, x))
    return np.maximum(a, _ev(node.args[1], t, x))


@np.errstate(all="ignore")
def _bound(node: Node, t) -> Node:
    # an x-free node as a Num of its read-only value at t; a Num, or a node
    # that raises DomainError at t, as it is
    if not isinstance(node, Num):
        with contextlib.suppress(DomainError):
            value = np.array(_ev(node, t, 0.0))
            value.flags.writeable = False
            return Num(value)
    return node


def bind_t(node: Node, t) -> Node:
    """node with each largest subtree that does not read x replaced by a Num
    of its read-only value at t, so it evaluates at t like node, walking only
    the part that reads x. One walk finds, bottom up, which subtrees read x
    (as ``_variables`` would say). A subtree that raises DomainError stays as
    it is.
    """
    t = np.asarray(t, dtype=float)

    def bind(n: Node):
        # (n with its largest x-free subtrees bound, whether n reads x); an
        # x-free n is left to its parent to bind whole
        kind = type(n)
        if kind is Var:
            return n, n.name == "x"
        if kind is Num:
            return n, False
        if kind is Neg:
            arg, reads = bind(n.arg)
            return (Neg(arg), True) if reads else (n, False)
        if kind is Bin:
            (left, lx), (right, rx) = bind(n.left), bind(n.right)
            if not (lx or rx):
                return n, False
            left, right = (left if lx else _bound(n.left, t)), (right if rx else _bound(n.right, t))
            return Bin(n.op, left, right), True
        args, reads = zip(*map(bind, n.args))
        if not any(reads):
            return n, False
        args = tuple(a if r else _bound(kid, t) for kid, a, r in zip(n.args, args, reads))
        return Call(n.fn, args), True

    bound, reads = bind(node)
    return bound if reads else _bound(node, t)


_FLOAT = np.dtype(float)


def _operand(v):
    # v as evaluation reads it: a float64 array, or a float
    if type(v) is np.ndarray and v.dtype is _FLOAT:
        return v
    return np.asarray(v, dtype=float) if np.ndim(v) else float(v)


def _variables(node: Node) -> set:
    # the names of the variables node reads
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            names.add(n.name)
        elif isinstance(n, Neg):
            stack.append(n.arg)
        elif isinstance(n, Bin):
            stack += (n.left, n.right)
        elif isinstance(n, Call):
            stack += n.args
    return names


def _forcing_split(node: Node):
    # (h, p, p is the right operand) for node = h(x) +- p(t) or p(t) +- h(x),
    # (node, None, True) for a node that reads no t, None otherwise
    if not (isinstance(node, Bin) and node.op in "+-"):
        return (node, None, True) if "t" not in _variables(node) else None
    left, right = _variables(node.left), _variables(node.right)
    if "t" not in left | right:
        return node, None, True
    if "t" not in left and "x" not in right:
        return node.left, node.right, True
    if "t" not in right and "x" not in left:
        return node.right, node.left, False
    return None


@np.errstate(all="ignore")
def envelope(node: Node, t, x) -> np.ndarray:
    """At each x of the grid x, the least and the greatest g over the column
    of times t, as the rows of one array; each value is bitwise one of
    ``evaluate(node, t, x)``.

    For g = h(x) + p(t), h(x) - p(t), p(t) + h(x) or p(t) - h(x), where h
    reads no t and p no x, h is evaluated once over x and p once over t, and
    the rows are g at the two t where p is least and greatest. Rounding is
    monotone, so at each x they give g's extremes over t, and every
    overflow. A g that reads no t gives one row. Any other g, and one whose
    h or p leaves its domain or is not finite at some x or t, is evaluated
    at every t, about _CHUNK_ENTRIES samples at a time, and the rows are its
    [min; max] over t; a DomainError there is raised.
    """
    tv, xv = _operand(t), _operand(x)
    split = _forcing_split(node)
    with contextlib.suppress(DomainError):
        if split is not None:
            h_node, p_node, p_right = split
            h = _ev(h_node, tv, xv)
            if np.shape(h) != xv.shape:  # h reads no x
                h = np.broadcast_to(h, xv.shape)
            if p_node is None:
                bounds = h[None]
            else:
                p = _ev(p_node, tv, xv)
                ends = np.array([p.min(), p.max()])[:, None]
                a, b = (h, ends) if p_right else (ends, h)
                bounds = a + b if node.op == "+" else a - b
            if np.isfinite(bounds).all():
                return bounds
    bounds = np.repeat([[np.inf], [-np.inf]], xv.size, axis=1)
    step = max(1, _CHUNK_ENTRIES // xv.size)
    for lo in range(0, len(tv), step):
        values = evaluate(node, tv[lo:lo + step], xv)
        np.minimum(bounds[0], values.min(axis=0), out=bounds[0])
        np.maximum(bounds[1], values.max(axis=0), out=bounds[1])
    return bounds


@np.errstate(all="ignore")  # as a decorator: the context manager costs three times as much
def evaluate(node: Node, t, x) -> float | np.ndarray:
    """Evaluate an AST at time index t and state x.

    Both arguments may be scalars or broadcastable numpy arrays; the result
    matches the broadcast shape (a plain float for scalar inputs). Domain
    violations and non-finite results raise DomainError rather than leaking
    NaN/inf into callers. An array result is fresh or read-only.
    """
    tv, xv = _operand(t), _operand(x)
    arr = np.asarray(_ev(node, tv, xv), dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("evaluation produced a non-finite value")
    t_shape = tv.shape if type(tv) is np.ndarray else ()
    x_shape = xv.shape if type(xv) is np.ndarray else ()
    if arr.shape != x_shape or t_shape != arr.shape[arr.ndim - len(t_shape):]:
        # constant subtrees evaluate to scalars; hand callers the full grid shape
        shape = np.broadcast_shapes(t_shape, x_shape)
        arr = np.ascontiguousarray(np.broadcast_to(arr, shape))
    elif arr is xv or arr is tv or not arr.flags.writeable:
        arr = np.broadcast_to(arr, arr.shape)  # a read-only view of x, t or a bound value
    return float(arr) if arr.ndim == 0 else arr
