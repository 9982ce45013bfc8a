import math
import warnings

import pytest

import fdcran.model as model
from fdcran.model import (
    PowerAllocation,
    SchemeId,
    SystemParams,
    db_to_linear,
)

from conftest import make_params


def test_db_round_trip():
    assert db_to_linear(20.0) == 100.0
    assert db_to_linear(0.0) == 1.0


@pytest.mark.parametrize("field", ["alpha", "beta_du", "p_u_max", "c_d"])
def test_system_params_rejects_negative(field):
    with pytest.raises(ValueError):
        make_params(**{field: -0.1})


def test_system_params_rejects_non_finite():
    with pytest.raises(ValueError):
        make_params(p_u_max=math.inf)
    with pytest.raises(ValueError, match="alpha must be numeric, got 'x'"):
        make_params(alpha="x")


def test_power_allocation_validation():
    p = PowerAllocation(1.5, 0.0)
    assert (p.p_u, p.p_d) == (1.5, 0.0)
    with pytest.raises(ValueError):
        PowerAllocation(-1.0, 0.0)


def test_gamma_du_warns_once(monkeypatch):
    monkeypatch.setattr(model, "_gamma_du_warned", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_params(gamma_du=1.0)
        make_params(gamma_du=10.0)
    assert len(caught) == 1
    assert "gamma_du" in str(caught[0].message)


def test_gamma_du_zero_is_silent(monkeypatch):
    monkeypatch.setattr(model, "_gamma_du_warned", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_params(gamma_du=0.0)
    assert caught == []


def test_scheme_id_order_is_canonical():
    assert [s.value for s in SchemeId] == [
        "hd_scp",
        "hd_cran",
        "fd_scp",
        "fd_scp_sic",
        "fd_cran",
        "fd_cran_sic",
    ]
