from dataclasses import replace

import pytest

from fdcran.model import SystemParams
from fdcran.sweep import preset_spec, run_sweep


@pytest.fixture(scope="session")
def fig3_verify_rows():
    """The rows of `fdcran sweep --preset fig3 --verify`, computed once per
    session; tests must not change them."""
    return run_sweep(replace(preset_spec("fig3"), oracle=True))


@pytest.fixture
def fig2_params() -> SystemParams:
    """Dense small-cell operating point used throughout: 20 dB budgets,
    strong inter-cell D-U coupling, strong intra-cell U-D coupling."""
    return SystemParams(
        alpha=0.4,
        beta_du=0.4,
        beta_ud=0.04,
        gamma_du=0.0,
        gamma_ud=4.0,
        p_u_max=100.0,
        p_d_max=100.0,
        c_u=10.0,
        c_d=10.0,
    )


def make_params(**overrides) -> SystemParams:
    base = dict(
        alpha=0.4,
        beta_du=0.4,
        beta_ud=0.04,
        gamma_du=0.0,
        gamma_ud=4.0,
        p_u_max=100.0,
        p_d_max=100.0,
        c_u=10.0,
        c_d=10.0,
    )
    base.update(overrides)
    return SystemParams(**base)
