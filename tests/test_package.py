"""The package namespace: every public name resolves on first use, and
importing fdcran and building sweep specs import no numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdcran
import fdcran.cli

# an hd_domain-style config (perfbench/hd_domain.py): a random base point, a
# half-duplex sweep over the whole range of its variable
HD_CONFIG = """\
base.alpha = 0.24771754354597048
base.beta_du = 0.4494910647887381
base.beta_ud = 0.651592972722763
base.gamma_du = 0.0
base.gamma_ud = 6.309786809084105
base.p_u_db = 2.815787603227047
base.p_d_db = 0.8504242956601893
base.c_u = 5.193204814860641
base.c_d = 0.025272640213328312
sweep.var = p_db_joint
sweep.start = 0.0215
sweep.stop = 29.9
sweep.step = 0.5
schemes = hd_scp, hd_cran
"""

# the numpy-free steps, then a sweep, which loads numpy; a submodule that the
# sweep did not import resolves after it
CHILD = """
import dataclasses
import sys

import fdcran

spec = dataclasses.replace(fdcran.preset_spec("fig3"), oracle=True)
hd = fdcran.parse_config(sys.argv[1])
fdcran.SystemParams(alpha=0.4, beta_du=0.4, beta_ud=0.04, gamma_du=0.0, gamma_ud=4.0,
                    p_u_max=100.0, p_d_max=100.0, c_u=10.0, c_d=10.0)
fdcran.SchemeId.HD_SCP
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("fdcran"))
rows = fdcran.run_sweep(hd)
assert "numpy" in sys.modules
assert "fdcran.svg" not in sys.modules and fdcran.svg.emit_svg is fdcran.emit_svg
print(len(rows), len(fdcran.run_sweep(spec)))
"""


def test_import_and_config_load_no_numpy_until_a_sweep_runs():
    # the child imports this fdcran, wherever the test run found it
    src = str(Path(fdcran.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, HD_CONFIG], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["120", "198"]


def test_every_public_name_resolves():
    for name in fdcran.__all__:
        value = getattr(fdcran, name)
        assert value is getattr(sys.modules[f"fdcran.{fdcran._MODULE_OF[name]}"], name)
    assert set(dir(fdcran)) >= set(fdcran.__all__)
    star = {}
    exec("from fdcran import *", star)
    assert set(star) - {"__builtins__"} == set(fdcran.__all__)
    for module in fdcran._NAMES:
        assert getattr(fdcran, module) is sys.modules[f"fdcran.{module}"]
    assert fdcran.parse_config is fdcran.cli.parse_config


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fdcran.no_such_name
