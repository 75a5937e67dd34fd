"""Small closed-form expression grammar for initial-curve components.

Expressions are functions of the single curve parameter ``vartheta`` built
from +, -, *, /, **, parentheses, numeric literals, ``pi`` and the functions
sin, cos, tan, sqrt, exp, log, atan (alias arctan) and abs.  The whitelisted
syntax tree is compiled once into ``lambda vartheta: <body>`` and run twice
over: on floats with the ``math`` functions for values, and on dual numbers
``(value, derivative)`` for exact forward-mode derivatives of curve tangents.
"""

from __future__ import annotations

import ast
import math

from .errors import ExpressionError


class _Dual:
    """``v + d*eps`` with ``eps**2 = 0``: a value and its vartheta-derivative.

    Subexpressions free of vartheta stay plain floats, so only the operand
    combinations that involve a dual number are defined here.
    """

    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float):
        self.v = v
        self.d = d

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __pos__(self):
        return self

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d + o.d)
        return _Dual(self.v + o, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.d * o.v + self.v * o.d)
        return _Dual(self.v * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Dual):
            q = self.v / o.v
            return _Dual(q, (self.d - q * o.d) / o.v)
        return _Dual(self.v / o, self.d / o)

    def __rtruediv__(self, o):
        q = o / self.v
        return _Dual(q, -q * self.d / self.v)

    def __pow__(self, o):
        if isinstance(o, _Dual):
            p = self.v ** o.v
            return _Dual(p, p * (o.d * math.log(self.v) + o.v * self.d / self.v))
        return _Dual(self.v ** o, o * self.v ** (o - 1.0) * self.d)

    def __rpow__(self, o):
        p = o ** self.v
        return _Dual(p, p * math.log(o) * self.d)


def _lift(f, df):
    """``f`` on floats, and on duals with the chain rule through ``df``."""

    def lifted(u):
        if isinstance(u, _Dual):
            return _Dual(f(u.v), df(u.v) * u.d)
        return f(u)

    return lifted


# name: (function, derivative)
_FUNCS = {
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda x: -math.sin(x)),
    "tan": (math.tan, lambda x: math.tan(x) ** 2 + 1.0),
    "sqrt": (math.sqrt, lambda x: 0.5 / math.sqrt(x)),
    "exp": (math.exp, math.exp),
    "log": (math.log, lambda x: 1.0 / x),
    "atan": (math.atan, lambda x: 1.0 / (1.0 + x * x)),
    "arctan": (math.atan, lambda x: 1.0 / (1.0 + x * x)),
    "abs": (math.fabs, lambda x: float((x > 0) - (x < 0))),  # abs'(0) = 0
}

# the compiled lambda's globals: nothing but the grammar's names
_VALUE_NS = {"__builtins__": {}, "pi": math.pi}
_VALUE_NS.update((name, f) for name, (f, _) in _FUNCS.items())
_DUAL_NS = {"__builtins__": {}, "pi": math.pi}
_DUAL_NS.update((name, _lift(f, df)) for name, (f, df) in _FUNCS.items())

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
)

# what evaluating a grammatical expression can raise on bad data: division
# by zero, math domain errors, overflow, and complex intermediates
_EVAL_ERRORS = (ArithmeticError, ValueError, TypeError)


def _check_grammar(text: str) -> ast.Expression:
    """Parse and whitelist-validate the raw string before it is compiled.

    The tree is compiled and run, so anything outside the arithmetic grammar
    (attribute access, subscripts, dunder names, keywords) must be rejected
    up front.  Numeric literals become floats, so integer powers such as
    ``2**10**10`` overflow at once instead of building huge integers.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    callees = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"disallowed construct {type(node).__name__} in {text!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError(f"disallowed call in {text!r}")
            if node.func.id not in _FUNCS:
                raise ExpressionError(
                    f"function {node.func.id!r} not allowed in {text!r}"
                )
            if len(node.args) != 1:
                raise ExpressionError(
                    f"{node.func.id} takes one argument in {text!r}"
                )
            callees.add(node.func)
        elif isinstance(node, ast.Name):
            if node not in callees and node.id not in ("pi", "vartheta"):
                raise ExpressionError(f"unknown symbol {node.id!r} in {text!r}")
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ExpressionError(
                    f"literal {node.value!r} not allowed in {text!r}"
                )
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ExpressionError(
                    f"literal out of range in {text!r}"
                ) from exc
    return tree


def _compile(text: str, tree: ast.Expression):
    """Code object of ``lambda vartheta: <tree>``."""
    wrapper = ast.parse("lambda vartheta: 0", mode="eval")
    wrapper.body.body = tree.body
    return compile(ast.fix_missing_locations(wrapper), text, "eval")


class CurveExpression:
    """A parsed expression together with its analytic vartheta-derivative."""

    def __init__(self, text: str):
        self.text = text
        tree = _check_grammar(text)
        self._constant = not any(
            isinstance(node, ast.Name) and node.id == "vartheta"
            for node in ast.walk(tree)
        )
        code = _compile(text, tree)
        self._fn = eval(code, _VALUE_NS)
        self._dfn = eval(code, _DUAL_NS)

    def _finite(self, fn, vartheta) -> float:
        try:
            value = float(fn(float(vartheta)))
        except _EVAL_ERRORS as exc:
            raise ExpressionError(
                f"{self.text!r} at vartheta = {vartheta!r}: {exc}"
            ) from exc
        if not math.isfinite(value):
            raise ExpressionError(
                f"{self.text!r} at vartheta = {vartheta!r} is {value!r}"
            )
        return value

    def __call__(self, vartheta: float) -> float:
        return self._finite(self._fn, vartheta)

    def deriv(self, vartheta: float) -> float:
        if self._constant:
            return 0.0
        return self._finite(lambda v: self._dfn(_Dual(v, 1.0)).d, vartheta)

    def is_constant(self) -> bool:
        return self._constant

    def __repr__(self):
        return f"CurveExpression({self.text!r})"


def evaluate_scalar(text: str) -> float:
    """Evaluate a constant expression (used for config values like 'pi/2')."""
    expr = CurveExpression(text)
    if not expr.is_constant():
        raise ExpressionError(f"expected a constant, got {text!r}")
    return expr(0.0)
