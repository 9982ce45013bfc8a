"""One kernel in two namespaces: rate_closed_form's kernel, run through the
rates module's math shim on floats (every rate the solver forms) and through
numpy on arrays (the public rate_closed_form), gives the same numbers.  They
agree within 4 ulp, where numpy's vector loops round log2 and log1p
otherwise than the C library, bit for bit with numpy's SIMD loops off
(NPY_DISABLE_CPU_FEATURES), and with the same inf and NaN everywhere; the
shim itself never raises."""

import math

import numpy as np
import pytest

import fdcran.rates as rates
from fdcran.spectral import _closed_form


def _simd_off() -> bool:
    """Whether numpy runs none of its dispatched SIMD loops, whose log2 and
    log1p may round otherwise than the C library's."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatch = getattr(umath, "__cpu_dispatch__", None)
    if dispatch is None:
        return False
    return not any(umath.__cpu_features__.get(feature) for feature in dispatch)


ULPS = 0 if _simd_off() else 4


def _agree(got: float, want: float) -> bool:
    """got (the shim's) equals want (numpy's) to within ULPS ulp, inf and
    NaN alike."""
    if math.isnan(want) or math.isinf(want) or want == 0.0:
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= ULPS * math.ulp(want)


SNR = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 7.0, 1e10, 1e300, 2.0**1020, 1.7e308, math.inf]


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.4, 0.45, 0.4999999, 0.4999999989])
def test_the_closed_form_gives_numpys_numbers_through_the_math_shim(alpha):
    want = _closed_form(np, np.array(SNR), alpha).tolist()
    for s, expected in zip(SNR, want):
        assert _agree(_closed_form(rates._MATH, s, alpha), expected), (s, expected)
    assert math.isnan(_closed_form(rates._MATH, math.nan, alpha))


SPECIAL = [-math.inf, -1.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 0.75, 1.0, 2.0, 1e308,
           math.inf, math.nan]


@pytest.mark.parametrize("name", ["log2", "log1p", "sqrt"])
def test_the_shim_gives_numpys_inf_and_nan_where_math_raises(name):
    with np.errstate(all="ignore"):
        want = getattr(np, name)(np.array(SPECIAL)).tolist()
    for x, expected in zip(SPECIAL, want):
        got = getattr(rates._MATH, name)(x)
        assert _agree(got, expected), (x, got, expected)
        assert math.copysign(1.0, got) == math.copysign(1.0, expected) or math.isnan(got)


def test_the_shims_minimum_maximum_and_ldexp_are_numpys():
    pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
    for name in ("minimum", "maximum"):
        want = getattr(np, name)(*map(np.array, zip(*pairs))).tolist()
        for (a, b), expected in zip(pairs, want):
            got = getattr(rates._MATH, name)(a, b)
            assert got == expected or math.isnan(got) and math.isnan(expected), (name, a, b)
            assert math.copysign(1.0, got) == math.copysign(1.0, expected) or math.isnan(got)
    for x in SPECIAL:
        for n in (-1100, -5, 0, 3, 1100, 5000):
            with np.errstate(all="ignore"):
                expected = float(np.ldexp(x, n))
            got = rates._MATH.ldexp(x, n)
            assert got == expected or math.isnan(got) and math.isnan(expected), (x, n)
