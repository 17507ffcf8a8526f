"""What the package loads at import, and the lazily bound scipy.integrate names.

``import ehrenfestcat`` (with ``cli`` and ``validate``) loads numpy and
``scipy.special`` only: ``scipy.linalg`` loads with the first renewal
tail or Talbot rule, and ``scipy.integrate`` with the first quadrature or
ODE oracle.  The modules still answer ``quad`` (and ``ehrenfest`` also
``quad_vec`` and ``solve_ivp``) with the ``scipy.integrate`` objects, on
first access, for the benchmark's tracer to wrap.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehrenfestcat
from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import oujump as ou
from ehrenfestcat import specfun as sf

SRC_DIR = str(Path(ehrenfestcat.__file__).resolve().parent.parent)

CHILD = """
import json, sys
import ehrenfestcat, ehrenfestcat.cli, ehrenfestcat.validate
from ehrenfestcat import ehrenfest as eh

LAZY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse")
out = {"at_import": [m for m in LAZY if m in sys.modules]}
p = eh.ChainParams(N=6, lam=0.6, mu=0.4, xi=0.5)
closed = eh.q_cat_row(p).values
out["after_q_cat_row"] = [m for m in LAZY if m in sys.modules]
quad = eh.q_cat_quadrature_row(p).values
ode = eh.ode_transient(p, 0, [200.0])[0].values
out["after_oracles"] = [m for m in LAZY if m in sys.modules]
out["quadrature_gap"] = float(abs(closed - quad).max())
out["ode_gap"] = float(abs(closed - ode).max())
print(json.dumps(out))
"""


def test_import_loads_no_integrate_or_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, check=True)
    out = json.loads(proc.stdout)
    assert out["at_import"] == []
    assert "scipy.linalg" in out["after_q_cat_row"]
    assert "scipy.integrate" not in out["after_q_cat_row"]
    assert "scipy.integrate" in out["after_oracles"]
    assert out["quadrature_gap"] <= 1e-10
    assert out["ode_gap"] <= 1e-9


def test_integrate_names_for_the_tracer():
    import scipy.integrate

    assert eh.quad is scipy.integrate.quad
    assert eh.quad_vec is scipy.integrate.quad_vec
    assert eh.solve_ivp is scipy.integrate.solve_ivp
    assert ou.quad is scipy.integrate.quad
    assert sf.quad is scipy.integrate.quad
    assert not hasattr(eh, "no_such_name")
    for mod in (eh, ou, sf):
        with pytest.raises(AttributeError, match=f"module '{mod.__name__}' has no attribute 'solve'"):
            getattr(mod, "solve")
    with pytest.raises(AttributeError, match="'ehrenfestcat.oujump' has no attribute 'quad_vec'"):
        ou.quad_vec
