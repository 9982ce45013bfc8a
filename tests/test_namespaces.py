"""One closed form, in floats: rate_closed_form maps the float kernel
spectral._closed_form, which every C-RAN rate of the solver calls, over its
broadcast inputs, so each of its elements is the kernel's float bit for bit.
The math shim that the float kernels call (spectral._MATH) never raises: it
gives numpy's inf and NaN where math would raise."""

import math

import numpy as np
import pytest

from fdcran.spectral import _MATH, _closed_form, rate_closed_form

SNR = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 7.0, 1e10, 1e300, 2.0**1020, 1.7e308, math.inf,
       math.nan]
ALPHA = [0.0, 0.1, 0.4, 0.45, 0.4999999, 0.4999999989, -0.3]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("alpha", ALPHA)
def test_rate_closed_form_is_the_float_kernel_bit_for_bit(alpha):
    want = _hex(_closed_form(s, alpha) for s in SNR)
    assert _hex(rate_closed_form(np.array(SNR), alpha).tolist()) == want
    grid = rate_closed_form(np.array(SNR[:12]).reshape(3, 4), alpha)
    assert grid.shape == (3, 4) and _hex(grid.ravel().tolist()) == want[:12]
    scalars = [rate_closed_form(s, alpha) for s in SNR]
    assert all(type(x) is float for x in scalars) and _hex(scalars) == want


def test_a_scalar_s_against_an_array_alpha_is_the_float_kernel_bit_for_bit():
    for s in SNR:
        got = rate_closed_form(s, np.array(ALPHA))
        assert got.shape == (len(ALPHA),)
        assert _hex(got.tolist()) == _hex(_closed_form(s, a) for a in ALPHA)


SPECIAL = [-math.inf, -1.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 0.75, 1.0, 2.0, 1e308,
           math.inf, math.nan]


@pytest.mark.parametrize("name", ["log2", "log1p", "sqrt"])
def test_the_shim_gives_numpys_inf_and_nan_where_math_raises(name):
    # math's float where math gives one, numpy's where math raises
    with np.errstate(all="ignore"):
        numpys = getattr(np, name)(np.array(SPECIAL)).tolist()
    for x, fallback in zip(SPECIAL, numpys):
        try:
            want = getattr(math, name)(x)
        except ValueError:
            want = fallback
        got = getattr(_MATH, name)(x)
        assert got == want or math.isnan(got) and math.isnan(want), (x, got, want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) or math.isnan(got)


def test_the_shims_minimum_maximum_and_ldexp_are_numpys():
    pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
    for name in ("minimum", "maximum"):
        want = getattr(np, name)(*map(np.array, zip(*pairs))).tolist()
        for (a, b), expected in zip(pairs, want):
            got = getattr(_MATH, name)(a, b)
            assert got == expected or math.isnan(got) and math.isnan(expected), (name, a, b)
            assert math.copysign(1.0, got) == math.copysign(1.0, expected) or math.isnan(got)
    for x in SPECIAL:
        for n in (-1100, -5, 0, 3, 1100, 5000):
            with np.errstate(all="ignore"):
                expected = float(np.ldexp(x, n))
            got = _MATH.ldexp(x, n)
            assert got == expected or math.isnan(got) and math.isnan(expected), (x, n)
