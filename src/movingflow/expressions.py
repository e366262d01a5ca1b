"""Arithmetic expression trees with exact symbolic differentiation.

Expressions are written in the variables ``x1 .. xd`` and ``t`` using
``+ - * / ^``, the functions ``sin, cos, exp, sqrt, log``, the constant
``pi`` and numeric literals.  Parsing produces a small AST that can be

* evaluated on scalars or numpy arrays, and
* differentiated symbolically on the tree, which yields a new tree for
  each first or higher derivative, without finite differencing.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression", "evaluate",
           "coordinate_names"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "log": np.log,
}

_CONSTANTS = {"pi": math.pi}


class ExpressionError(ValueError):
    """Raised on parse failures; carries the offending source position."""

    def __init__(self, message, source=None, position=None):
        if position is not None:
            message = f"{message} (at position {position} in {source!r})"
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# AST nodes.  ``eval`` takes a dict name -> array/scalar; ``diff`` returns a
# new node for the exact partial derivative with respect to one variable.
# ---------------------------------------------------------------------------


class _Node:
    def eval(self, env):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def variables(self):
        return set()


class _Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, env):
        return self.value

    def diff(self, var):
        return _Num(0.0)

    def __repr__(self):
        return repr(self.value)


class _Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def diff(self, var):
        return _Num(1.0 if var == self.name else 0.0)

    def variables(self):
        return {self.name}

    def __repr__(self):
        return self.name


def _is_const(node, value=None):
    if not isinstance(node, _Num):
        return False
    return True if value is None else node.value == value


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _Num(a.value + b.value)
    return _Bin("+", a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _Num(a.value - b.value)
    return _Bin("-", a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _Num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return _Num(a.value * b.value)
    return _Bin("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return _Num(0.0)
    if _is_const(b, 1.0):
        return a
    return _Bin("/", a, b)


class _Bin(_Node):
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b

    def eval(self, env):
        a = self.a.eval(env)
        b = self.b.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        raise AssertionError(self.op)

    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, self.b), _mul(self.a, db))
        if self.op == "/":
            num = _sub(_mul(da, self.b), _mul(self.a, db))
            return _div(num, _mul(self.b, self.b))
        raise AssertionError(self.op)

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


class _Neg(_Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, env):
        return -self.a.eval(env)

    def diff(self, var):
        d = self.a.diff(var)
        return _Num(0.0) if _is_const(d, 0.0) else _Neg(d)

    def variables(self):
        return self.a.variables()

    def __repr__(self):
        return f"(-{self.a!r})"


class _Pow(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def eval(self, env):
        return self.a.eval(env) ** self.b.eval(env)

    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        if _is_const(self.b) and _is_const(db, 0.0):
            # d(a^c) = c * a^(c-1) * a'
            c = self.b.value
            return _mul(_mul(_Num(c), _Pow(self.a, _Num(c - 1.0))), da)
        # general a^b: a^b * (b' log a + b a'/a)
        term = _add(_mul(db, _Call("log", self.a)), _div(_mul(self.b, da), self.a))
        return _mul(_Pow(self.a, self.b), term)

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __repr__(self):
        return f"({self.a!r} ^ {self.b!r})"


class _Call(_Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def eval(self, env):
        return _FUNCTIONS[self.fn](self.a.eval(env))

    def diff(self, var):
        da = self.a.diff(var)
        if _is_const(da, 0.0):
            return _Num(0.0)
        if self.fn == "sin":
            outer = _Call("cos", self.a)
        elif self.fn == "cos":
            outer = _Neg(_Call("sin", self.a))
        elif self.fn == "exp":
            outer = _Call("exp", self.a)
        elif self.fn == "sqrt":
            outer = _div(_Num(0.5), _Call("sqrt", self.a))
        elif self.fn == "log":
            outer = _div(_Num(1.0), self.a)
        else:
            raise AssertionError(self.fn)
        return _mul(outer, da)

    def variables(self):
        return self.a.variables()

    def __repr__(self):
        return f"{self.fn}({self.a!r})"


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] in ".eE" or
                             (source[j] in "+-" and source[j - 1] in "eE")):
                j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionError(f"bad numeric literal {text!r}", source, i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", source, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, source, variables):
        self.source = source
        self.variables = variables
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}",
                                  self.source, tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected {tok[1]!r}", self.source, tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = _Bin(op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = _Bin(op, node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return _Neg(self.unary())
        if tok[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            exponent = self.unary()  # right-associative
            return _Pow(base, exponent)
        return base

    def atom(self):
        tok = self.advance()
        kind, value, at = tok
        if kind == "num":
            return _Num(value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}",
                                          self.source, at)
                self.advance()
                arg = self.expr()
                if self.peek()[0] == ",":
                    raise ExpressionError(f"function {value!r} takes one argument",
                                          self.source, at)
                self.expect(")")
                return _Call(value, arg)
            if value in _CONSTANTS:
                return _Num(_CONSTANTS[value])
            if value not in self.variables:
                raise ExpressionError(f"unknown identifier {value!r}",
                                      self.source, at)
            return _Var(value)
        raise ExpressionError(f"unexpected {value!r}", self.source, at)


class Expression:
    """A parsed arithmetic expression over named variables.

    Instances are immutable; evaluation and differentiation are pure, so a
    single Expression may be shared freely across threads.
    """

    def __init__(self, root, source, variables):
        self._root = root
        self.source = source
        self.variables = tuple(variables)

    @property
    def free_variables(self):
        """The variables the expression uses, a subset of ``variables``."""
        return frozenset(self._root.variables())

    def __call__(self, **env):
        missing = self.free_variables - set(env)
        if missing:
            raise ExpressionError(f"missing values for {sorted(missing)}")
        return self._root.eval(env)

    def derivative(self, var):
        """Exact partial derivative as a new Expression: the parsed tree
        differentiated symbolically."""
        if var not in self.variables:
            raise ExpressionError(f"cannot differentiate with respect to {var!r}")
        return Expression(self._root.diff(var), f"d({self.source})/d{var}",
                          self.variables)

    def __repr__(self):
        return f"Expression({self.source!r})"


def coordinate_names(dimension):
    """The variable names ``x1 .. xd, t`` of a d-dimensional expression."""
    return tuple(f"x{i + 1}" for i in range(dimension)) + ("t",)


def parse_expression(source, variables=("x1", "x2", "x3", "t")):
    """Parse ``source`` into an Expression over the given variable names."""
    root = _Parser(source, set(variables)).parse()
    return Expression(root, source, variables)


def evaluate(expressions, X, t):
    """Values of expressions over x1..xd (the columns of ``X``) and ``t``,
    as an (n, k) array: one column per expression, constants broadcast."""
    env = {f"x{i + 1}": X[:, i] for i in range(X.shape[1])}
    env["t"] = t
    n = len(X)
    return np.stack([np.broadcast_to(np.asarray(e(**env), dtype=float), (n,))
                     for e in expressions], axis=1)
