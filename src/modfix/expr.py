"""A minimal arithmetic expression language for scalar maps, modulars and
order predicates.

Grammar (standard precedence, left-associative binary operators, ^ binds
tightest and takes a nonnegative integer literal exponent):

    expr      := sum
    sum       := product (('+' | '-') product)*
    product   := unary (('*' | '/') unary)*
    unary     := '-' unary | power
    power     := atom ('^' INTEGER)?
    atom      := NUMBER | VARIABLE | '(' expr ')' | piecewise
    piecewise := 'piecewise' '(' branch (',' branch)* ')'
    branch    := comparison '->' expr | 'else' '->' expr
    comparison:= sum ('<=' | '<' | '=') sum

Numbers are integers or decimals, kept exact in the AST.  ``_lower``
compiles an AST once per backend into closures that convert each constant
once (``eval_expr`` is its one-shot call); an evaluation error is raised
when evaluation reaches it, never at compile time.  Comparisons appear only
in piecewise guards and in predicates; there are no transcendental
functions on purpose, so every accepted expression is auditable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .backend import Backend, Number
from .errors import ExprError, NonFiniteError

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>->|<=|<|=|[+\-*/^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def tokenize(src: str) -> list:
    toks = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ExprError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "ws":
            toks.append(Token(m.lastgroup, m.group(), m.start()))
    toks.append(Token("end", "", len(src)))
    return toks


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: object
    right: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Cmp:
    op: str  # <= < =
    left: object
    right: object
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Piecewise:
    branches: tuple  # of (guard Cmp | None, expr)
    pos: int = field(default=-1, compare=False)


class _Parser:
    def __init__(self, src: str, variables):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.variables = tuple(variables)

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "op" or t.text != text:
            raise ExprError(f"expected {text!r}", t.pos)
        return self.advance()

    def at_op(self, *texts) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text in texts

    # grammar -------------------------------------------------------------

    def sum(self):
        node = self.product()
        while self.at_op("+", "-"):
            t = self.advance()
            node = BinOp(t.text, node, self.product(), pos=t.pos)
        return node

    def product(self):
        node = self.unary()
        while self.at_op("*", "/"):
            t = self.advance()
            node = BinOp(t.text, node, self.unary(), pos=t.pos)
        return node

    def unary(self):
        if self.at_op("-"):
            t = self.advance()
            return Neg(self.unary(), pos=t.pos)
        return self.power()

    def power(self):
        node = self.atom()
        if self.at_op("^"):
            t = self.advance()
            e = self.peek()
            if e.kind != "num" or "." in e.text:
                raise ExprError("exponent must be a nonnegative integer literal",
                                e.pos)
            self.advance()
            node = Pow(node, int(e.text), pos=t.pos)
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Num(Fraction(t.text), pos=t.pos)
        if t.kind == "ident":
            if t.text == "piecewise":
                return self.piecewise()
            if t.text in self.variables:
                self.advance()
                return Var(t.text, pos=t.pos)
            raise ExprError(f"unknown identifier {t.text!r}", t.pos)
        if self.at_op("("):
            self.advance()
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprError("expected a value", t.pos)

    def comparison(self):
        left = self.sum()
        t = self.peek()
        if t.kind != "op" or t.text not in ("<=", "<", "="):
            raise ExprError("expected a comparison operator (<=, < or =)", t.pos)
        self.advance()
        return Cmp(t.text, left, self.sum(), pos=t.pos)

    def piecewise(self):
        start = self.advance()  # 'piecewise'
        self.expect_op("(")
        branches = []
        while True:
            t = self.peek()
            if t.kind == "ident" and t.text == "else":
                self.advance()
                guard = None
            else:
                guard = self.comparison()
            self.expect_op("->")
            branches.append((guard, self.sum()))
            if self.at_op(","):
                if guard is None:
                    raise ExprError("the else branch must come last", self.peek().pos)
                self.advance()
                continue
            break
        self.expect_op(")")
        return Piecewise(tuple(branches), pos=start.pos)

    def finish(self, node):
        t = self.peek()
        if t.kind != "end":
            raise ExprError(f"unexpected trailing input {t.text!r}", t.pos)
        return node


def parse_expression(src: str, variables=("x",)):
    """Parse an arithmetic expression (piecewise allowed, comparisons only
    inside guards) over the given variable names."""
    p = _Parser(src, variables)
    return p.finish(p.sum())


def parse_predicate(src: str, variables=("x", "y")) -> Cmp:
    """Parse a single comparison between two arithmetic expressions."""
    p = _Parser(src, variables)
    return p.finish(p.comparison())


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "<=": operator.le, "<": operator.lt,
        "=": operator.eq}


def _lower(node, backend: Backend):
    """Compile an AST into closures of an ``env`` dict, constants converted
    once by ``backend``; each error is raised only when evaluation reaches it."""
    if isinstance(node, Num):
        try:
            value = backend.number(node.value)
        except Exception:  # raised again each time the constant is evaluated
            return lambda env: backend.number(node.value)
        return lambda env: value
    if isinstance(node, Var):
        return operator.itemgetter(node.name)
    if isinstance(node, Neg):
        operand = _lower(node.operand, backend)
        return lambda env: -operand(env)
    if isinstance(node, (BinOp, Cmp)):
        op = _OPS[node.op]
        left, right = _lower(node.left, backend), _lower(node.right, backend)
        if node.op != "/":
            return lambda env: op(left(env), right(env))

        def divide(env):
            num, den = left(env), right(env)
            if den == 0:
                raise ExprError("division by zero", node.pos)
            return op(num, den)
        return divide
    if isinstance(node, Pow):
        base_of, exponent = _lower(node.base, backend), node.exponent

        def power(env):
            base = base_of(env)
            try:
                return base ** exponent
            except OverflowError:
                raise NonFiniteError(f"({base!r})^{exponent} overflows")
        return power
    if isinstance(node, Piecewise):
        branches = tuple((None if guard is None else _lower(guard, backend),
                          _lower(expr, backend)) for guard, expr in node.branches)

        def piecewise(env):
            for guard, expr in branches:
                if guard is None or guard(env):
                    return expr(env)
            raise ExprError("no piecewise branch matched", node.pos)
        return piecewise
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(node, env: dict, backend: Backend) -> Number:
    """Evaluate an AST over scalar variable bindings; comparisons are exact."""
    return _lower(node, backend)(env)
