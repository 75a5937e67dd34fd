import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullsheet as ns
from nullsheet.expressions import CurveExpression, evaluate_scalar


def _sign(x):
    return (x > 0) - (x < 0)


# expression, closed-form value, closed-form vartheta-derivative
CLOSED_FORMS = [
    ("sin(2*vartheta)", lambda x: math.sin(2 * x), lambda x: 2 * math.cos(2 * x)),
    ("cos(vartheta**2)", lambda x: math.cos(x * x), lambda x: -2 * x * math.sin(x * x)),
    ("tan(vartheta/3)", lambda x: math.tan(x / 3),
     lambda x: (1 + math.tan(x / 3) ** 2) / 3),
    ("sqrt(1 + vartheta)", lambda x: math.sqrt(1 + x), lambda x: 0.5 / math.sqrt(1 + x)),
    ("exp(-vartheta)", lambda x: math.exp(-x), lambda x: -math.exp(-x)),
    ("log(2 + vartheta)", lambda x: math.log(2 + x), lambda x: 1 / (2 + x)),
    ("atan(3*vartheta)", lambda x: math.atan(3 * x), lambda x: 3 / (1 + 9 * x * x)),
    ("arctan(vartheta)", lambda x: math.atan(x), lambda x: 1 / (1 + x * x)),
    ("abs(vartheta - 1)", lambda x: abs(x - 1), lambda x: _sign(x - 1)),
    ("2**vartheta / vartheta", lambda x: 2**x / x,
     lambda x: 2**x * (math.log(2) * x - 1) / (x * x)),
    ("vartheta**vartheta - 1/vartheta", lambda x: x**x - 1 / x,
     lambda x: x**x * (math.log(x) + 1) + 1 / (x * x)),
]


@pytest.mark.parametrize("text, value, deriv", CLOSED_FORMS)
@pytest.mark.parametrize("x", [0.3, 1.7, 2.9])
def test_value_and_derivative_match_closed_forms(text, value, deriv, x):
    expr = CurveExpression(text)
    assert not expr.is_constant()
    assert math.isclose(expr(x), value(x), rel_tol=1e-14, abs_tol=1e-15)
    assert math.isclose(expr.deriv(x), deriv(x), rel_tol=1e-14, abs_tol=1e-15)


def test_abs_derivative_at_zero_is_zero():
    assert CurveExpression("abs(vartheta)").deriv(0.0) == 0.0
    assert CurveExpression("abs(vartheta - 1)").deriv(1.0) == 0.0


def test_constants():
    expr = CurveExpression("pi/2 + sqrt(3)")
    assert expr.is_constant()
    assert expr.deriv(0.7) == 0.0
    assert expr(0.7) == math.pi / 2 + math.sqrt(3)
    assert evaluate_scalar("2*pi") == 2 * math.pi
    with pytest.raises(ns.ExpressionError):
        evaluate_scalar("vartheta")


def test_float_constants_are_not_truncated():
    f = CurveExpression("sqrt(1.25)/6.25*abs(1 + 0.25*sin(vartheta + 4.0))")
    assert f(0.7) == math.sqrt(1.25) / 6.25 * abs(1 + 0.25 * math.sin(0.7 + 4.0))


@pytest.mark.parametrize(
    "text", ["sin + 1", "sin(1, 2)", "True", "1j", "vartheta.real", "x[0]", "log(x=1)"]
)
def test_grammar_rejects(text):
    with pytest.raises(ns.ExpressionError):
        CurveExpression(text)


@pytest.mark.parametrize(
    "text",
    ["1e400", "sqrt(vartheta - 10)", "1/(vartheta - vartheta)", "2**10**10",
     "(vartheta - 10)**0.5", "log(0*vartheta)"],
)
def test_bad_values_raise_expression_error(text):
    expr = CurveExpression(text)
    with pytest.raises(ns.ExpressionError):
        expr(1.0)
    if not expr.is_constant():
        with pytest.raises(ns.ExpressionError):
            expr.deriv(1.0)


# every function of the grammar, and ** with each operand varying; on
# intermediates, ** and tan's derivative give other bits on a numpy scalar
# than in an array, which a float run as a 0-d array would meet
ONE_ROUTE = [
    "sin(vartheta)", "cos(vartheta)", "tan(vartheta)", "sqrt(vartheta)", "exp(vartheta)",
    "log(vartheta)", "atan(vartheta)", "arctan(vartheta)", "abs(vartheta - 1.5)",
    "vartheta**1.37", "1.37**vartheta", "vartheta**vartheta", "vartheta**2",
    "(vartheta + 0.5)**1.37", "(vartheta + 0.5)**(vartheta + 0.25)", "tan(vartheta/2)",
]


@pytest.mark.parametrize("text", ONE_ROUTE)
def test_an_array_gives_each_element_its_bits_alone(text):
    # a float runs as an array of one, so its bits do not depend on the batch
    expr = CurveExpression(text)
    points = np.random.default_rng(7).uniform(0.05, 3.0, 2000)
    points[:2] = 1.5, 1.0  # abs at its kink, log at its zero
    for fn in (expr, expr.deriv):
        batch = fn(points)
        assert batch.shape == points.shape and batch.dtype == np.float64
        for k, v in enumerate(points.tolist()):
            alone = fn(v)
            assert type(alone) is float
            assert np.float64(alone).tobytes() == batch[k].tobytes(), (fn, v)
        assert fn(points.reshape(40, 50)).tobytes() == batch.tobytes()


def test_a_constant_spreads_over_the_points():
    expr = CurveExpression("pi/2 + sqrt(3)")
    assert expr(np.zeros((2, 3))).tolist() == [[math.pi / 2 + math.sqrt(3)] * 3] * 2
    assert expr.deriv(np.zeros(4)).tolist() == [0.0] * 4
    assert expr(np.empty(0)).shape == (0,)


@pytest.mark.parametrize(
    "text, points, first",
    [("sqrt(vartheta - 1)", [2.0, 0.5, 3.0, 0.25], "0.5"),
     ("log(vartheta - 2)", [3.0, 2.5, 2.0, 1.0], "2.0"),
     ("1/(vartheta - 3)", [1.0, 2.0, 3.0], "3.0")],
)
def test_an_array_names_the_first_failing_vartheta(text, points, first):
    with pytest.raises(ns.ExpressionError, match=rf"^'{re.escape(text)}' at vartheta = {first} is "):
        CurveExpression(text)(np.array(points))


@pytest.mark.parametrize("text", ["1/0 + vartheta", "2**10**10 * vartheta", "abs((-1)**0.5)",
                                  "vartheta + (-8)**(1/3)"])
def test_a_failing_constant_subexpression_raises_expression_error(text):
    with pytest.raises(ns.ExpressionError):
        CurveExpression(text)(np.array([1.0, 2.0]))


def test_cli_import_leaves_out_sympy():
    src = str(Path(ns.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nullsheet.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
