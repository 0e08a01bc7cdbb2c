"""Elementwise differentiable math operations, the ``Tensor`` arithmetic
operators among them.

Each op is declared once (:func:`repro.autograd.select_ops.declare`); a
ufunc op's forward is the ufunc itself.  The trainer golden
(``tests/training/goldens``) pins every backward's arithmetic bit for
bit.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

from repro.autograd.select_ops import declare, temporary
from repro.autograd.tensor import Tensor

_SQRT_2 = float(np.sqrt(2.0))


def _add_backward(g, out, saved, a, b, needs):
    return g, g


def _sub_backward(g, out, saved, a, b, needs):
    return g, -g if needs[1] else None


def _mul_backward(g, out, saved, a, b, needs):
    return g * b if needs[0] else None, g * a if needs[1] else None


def _div_backward(g, out, saved, a, b, needs):
    return g / b if needs[0] else None, -g * a / (b**2) if needs[1] else None


def _pow(base, exponent, out=None, work=None):
    # ``ndarray.__pow__`` verbatim: its fast paths for special exponents
    # may round differently from an explicit ``np.power``.
    return base**exponent


def _pow_backward(g, out, saved, base, expo, needs):
    return (
        g * expo * base ** (expo - 1) if needs[0] else None,
        g * out * np.log(base) if needs[1] else None,
    )


def _pow_const_backward(g, out, saved, x, exponent, needs):
    return (g * exponent * x ** (exponent - 1),)


add = declare("add", np.add, _add_backward, "ew")
sub = declare("sub", np.subtract, _sub_backward, "ew")
mul = declare("mul", np.multiply, _mul_backward, "ew")
div = declare("div", np.true_divide, _div_backward, "ew")
neg = declare("neg", np.negative, lambda g, out, saved, x, needs: (-g,), "ew")
pow = declare("pow", _pow, _pow_backward, "fresh")  # noqa: A001
pow_const = declare("pow_const", _pow, _pow_const_backward, "fresh")

exp = declare("exp", np.exp, lambda g, out, saved, x, needs: (g * out,), "ew")
log = declare("log", np.log, lambda g, out, saved, x, needs: (g / x,), "ew")
sqrt = declare("sqrt", np.sqrt, lambda g, out, saved, x, needs: (g / (2.0 * out),), "ew")
abs = declare(  # noqa: A001 - mirrors numpy naming
    "abs", np.absolute, lambda g, out, saved, x, needs: (g * np.sign(x),), "ew"
)
sin = declare("sin", np.sin, lambda g, out, saved, x, needs: (g * np.cos(x),), "ew")
cos = declare("cos", np.cos, lambda g, out, saved, x, needs: (-g * np.sin(x),), "ew")
tanh = declare(
    "tanh", np.tanh, lambda g, out, saved, x, needs: (g * (1.0 - out**2),), "ew"
)
sigmoid = declare(
    "sigmoid",
    _special.expit,
    lambda g, out, saved, x, needs: (g * out * (1.0 - out),),
    "ew",
)


def _erf_backward(g, out, saved, x, needs):
    return (g * float(2.0 / np.sqrt(np.pi)) * np.exp(-x**2),)


erf = declare("erf", _special.erf, _erf_backward, "ew")


def _relu(x, out=None, work=None):
    """Elementwise max(x, 0)."""
    return np.where(x > 0, x, 0.0)


relu = declare("relu", _relu, lambda g, out, saved, x, needs: (g * (x > 0),), "fresh")


def _leaky_relu(x, negative_slope, out=None, work=None):
    return x * np.where(x > 0, 1.0, negative_slope)


def _leaky_relu_backward(g, out, saved, x, negative_slope, needs):
    return (g * np.where(x > 0, 1.0, negative_slope),)


_leaky_relu_op = declare("leaky_relu", _leaky_relu, _leaky_relu_backward, "fresh")


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """ReLU with a small slope for negative inputs."""
    return _leaky_relu_op(x, negative_slope=negative_slope)


def _gelu(x, out=None, work=None):
    """Exact GELU: ``x * Phi(x)`` with the Gaussian CDF ``Phi``.

    ``Phi`` is built in one temporary, which the backward keeps."""
    cdf = np.true_divide(x, _SQRT_2, out=temporary(work, "t", x.shape, x.dtype))
    _special.erf(cdf, out=cdf)
    np.add(1.0, cdf, out=cdf)
    np.multiply(0.5, cdf, out=cdf)
    out = np.multiply(x, cdf, out=out)
    return out if work is not None else (out, cdf)


def _gelu_backward(g, out, cdf, x, needs):
    """``g`` times the local slope ``Phi(x) + x phi(x)``."""
    pdf = np.exp(-0.5 * x**2) / float(np.sqrt(2.0 * np.pi))
    return (g * (cdf + x * pdf),)


gelu = declare("gelu", _gelu, _gelu_backward, "ew")


def _silu(x, out=None, work=None):
    """SiLU / swish: ``x * sigmoid(x)``."""
    sig = _special.expit(x, out=temporary(work, "t", x.shape, x.dtype))
    out = np.multiply(x, sig, out=out)
    return out if work is not None else (out, sig)


def _silu_backward(g, out, sig, x, needs):
    return (g * (sig + x * sig * (1.0 - sig)),)


silu = declare("silu", _silu, _silu_backward, "ew")


def _softplus(x, out=None, work=None):
    """Smooth ReLU: log(1 + e^x), computed stably."""
    return np.logaddexp(0.0, x, out=out)


softplus = declare(
    "softplus",
    _softplus,
    lambda g, out, saved, x, needs: (g * _special.expit(x),),
    "ew",
)


def _clip(x, low, high, out=None, work=None):
    return np.clip(x, low, high, out=out)


def _clip_backward(g, out, saved, x, low, high, needs):
    inside = np.ones_like(x, dtype=bool)
    if low is not None:
        inside &= x >= low
    if high is not None:
        inside &= x <= high
    return (g * inside,)


_clip_op = declare("clip", _clip, _clip_backward, "ew")


def clip(x: Tensor, low: float | None = None, high: float | None = None) -> Tensor:
    """Clamp values; gradient is passed through inside the clip range only."""
    return _clip_op(x, low=low, high=high)


def _maximum_backward(g, out, saved, a, b, needs):
    a_wins = a >= b
    return g * a_wins if needs[0] else None, g * ~a_wins if needs[1] else None


def _minimum_backward(g, out, saved, a, b, needs):
    a_wins = a <= b
    return g * a_wins if needs[0] else None, g * ~a_wins if needs[1] else None


#: Elementwise max; on ties the gradient goes to the first argument.
maximum = declare("maximum", np.maximum, _maximum_backward, "ew")
#: Elementwise min; on ties the gradient goes to the first argument.
minimum = declare("minimum", np.minimum, _minimum_backward, "ew")


def _where(condition, a, b, out=None, work=None):
    """Select from ``a`` where ``condition`` else ``b`` (``condition``
    takes no gradient)."""
    return np.where(condition.astype(bool, copy=False), a, b)


def _where_backward(g, out, saved, condition, a, b, needs):
    cond = condition.astype(bool, copy=False)
    return (), g * cond if needs[1] else None, g * ~cond if needs[2] else None


where = declare("where", _where, _where_backward, "fresh")
