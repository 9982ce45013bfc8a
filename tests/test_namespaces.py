"""One kernel in two namespaces: every rate kernel, run through the math shim
on floats (every reported number) and through numpy on arrays (the power
search), gives the same numbers.  They agree within 4 ulp, where numpy's
vector loops round log2 and log1p otherwise than the C library, bit for bit
with numpy's SIMD loops off (NPY_DISABLE_CPU_FEATURES), and with the same
inf and NaN everywhere; the shim itself never raises."""

import math
import random

import numpy as np
import pytest

import fdcran.rates as rates
from fdcran.config import parse_config
from fdcran.spectral import _closed_form
from test_batch import MIXED

SIC, TAN = rates.SicMode.SIC, rates.SicMode.TREAT_AS_NOISE


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

# the CI's overflow configs: budgets past 3000 dB, c_u = 1100, a t2 SINR past
# the float range, beta_du = 9.4e153 and alphas next to the zero-forcing limit
OVERFLOW_CONFIGS = [
    "base.p_u_db = 3080\nbase.p_d_db = 3000\nbase.c_u = 2000\nsweep.var = gamma_ud\n"
    "sweep.start = 0\nsweep.stop = 3\nsweep.step = 1\n",
    "base.beta_du = 1e100\nbase.p_u_db = 3000\nbase.p_d_db = 3080\nbase.c_u = 1100\n"
    "sweep.var = gamma_ud\nsweep.start = 0\nsweep.stop = 1\nsweep.step = 1\n",
    "base.alpha = 0\nbase.beta_ud = 0\nbase.gamma_ud = 1e100\nbase.p_u_db = 3000\n"
    "base.p_d_db = 3000\nbase.c_u = 2000\nbase.c_d = 2000\nsweep.var = beta_du\n"
    "sweep.start = 0\nsweep.stop = 0.4\nsweep.step = 0.2\n",
    "base.beta_du = 9.4e153\nbase.c_u = 2000\nbase.c_d = 2000\nsweep.var = gamma_ud\n"
    "sweep.start = 0\nsweep.stop = 4\nsweep.step = 1\n",
    "base.alpha = 0.4999999989\nbase.p_u_db = 3000\nbase.p_d_db = 3000\nbase.c_u = 2000\n"
    "base.c_d = 2000\nsweep.var = gamma_ud\nsweep.start = 0\nsweep.stop = 1\nsweep.step = 1\n",
    "base.c_u = 2000\nbase.c_d = 2000\nsweep.var = p_db_joint\nsweep.start = -10\n"
    "sweep.stop = 3070\nsweep.step = 154\n",
]
POINTS = MIXED + [
    spec.params_at(v) for spec in map(parse_config, OVERFLOW_CONFIGS) for v in spec.values()
]

# fractions of the budgets: the corners, the edges and random powers
_RNG = random.Random(38)
FRACTIONS = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.5), (0.25, 1.0)] + [
    (_RNG.random(), _RNG.random()) for _ in range(24)
]


def _agree(got: float, want: float) -> bool:
    """got (the shim's) equals want (numpy's) to within ULPS ulp, inf and
    NaN alike."""
    if math.isnan(want) or math.isinf(want) or want == 0.0:
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= ULPS * math.ulp(want)


def _kernels(xp, k, pu, pd):
    """Every kernel's values at the powers (pu, pd), in the point's unit."""
    r_u = rates._uplink(xp, k, pu, pd)
    return {
        "sigma_u_sq": rates._sigma_u_sq(xp, k, pu, pd),
        "uplink": r_u,
        "uplink_hd": rates._uplink(xp, k, pu, 0.0),
        "downlink_hd": rates._downlink(xp, k, 0.0, pd, 0.0, TAN),
        "downlink_tan": rates._downlink(xp, k, pu, pd, r_u, TAN),
        "downlink_sic": rates._downlink(xp, k, pu, pd, r_u, SIC),
    }


@pytest.mark.parametrize("family", ["scp", "cran"])
def test_every_kernel_gives_numpys_numbers_through_the_math_shim(family):
    # numpy runs the batch as the search does, on the stacked constants of all
    # points and (n, 1, m) powers; the shim runs each point and power alone
    forms = [rates._form(family, p) for p in POINTS]
    unit = np.array([k.unit for k in forms])[:, None, None]
    u, d = (np.array(f)[None, None, :] for f in zip(*FRACTIONS))
    p_u = np.array([p.p_u_max for p in POINTS])[:, None, None] * u * unit
    p_d = np.array([p.p_d_max for p in POINTS])[:, None, None] * d * unit
    with np.errstate(all="ignore"):
        arrays = _kernels(np, rates._stacked(forms), p_u, p_d)
    checked = 0
    for i, k in enumerate(forms):
        for j in range(len(FRACTIONS)):
            floats = _kernels(rates._MATH, k, float(p_u[i, 0, j]), float(p_d[i, 0, j]))
            for name, got in floats.items():
                want = float(np.broadcast_to(arrays[name], p_u.shape)[i, 0, j])
                assert type(got) is float, name
                assert _agree(got, want), (i, j, name, got, want)
                checked += 1
    assert checked == len(POINTS) * len(FRACTIONS) * 6


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
