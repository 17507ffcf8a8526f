"""The input contract of the public callables of ehrenfest, oujump and mc.

Every real argument must be finite, and every integer argument an
integer; a violation raises ValueError that names the argument and its
value.  Each callable is called once with the valid arguments of VALID
(and of MORE_CALLS), and then once per bad value of each numeric
argument: nan, +inf and -inf, and 1.5 where the valid value is an int.
A public callable with a parameter that VALID lacks fails here, so no
new routine skips the contract.
"""

import inspect
import math
import re

import numpy as np
import pytest

from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import mc
from ehrenfestcat import oujump as ou

P = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
D = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)
D_GRID = ou.DiffusionParams(alpha=1.2, beta=0.004, nu=0.001, xi=0.5)

#: a valid value for every parameter name of the public callables
VALID = {
    "p": P, "d": D, "m": ou.ScalingMap(0.01, P), "chain": P, "model": P,
    "cfg": mc.SimConfig(seed=1, n_paths=20, horizon=2.0),
    "N": 10, "lam": 0.6, "mu": 0.6, "xi": 0.5,
    "alpha": 1.2, "beta": 0.0, "nu": 0.001, "gamma": 0.0, "epsilon": 0.01,
    "seed": 1, "n_paths": 20, "horizon": 2.0, "fpt_grid_dt": 0.01,
    "j": 3, "k": 3, "start": 3, "path_index": 2, "n_points": 5,
    "t": 1.0, "grid": np.array([0.5, 1.0]), "x": 0.01, "y": 0.03, "s": 1.0,
    "transform": lambda s: ou.fpt_laplace_cat(D, 0.03, s),
    "n_nodes": 16, "check_rtol": 1e-4, "check_atol": 1e-7,
    "half_step_check": False,
}

#: further calls of a routine, with these arguments in place of VALID's
MORE_CALLS = {
    "estimate_fpt": [{"model": D, "start": 0.03}, {"model": D_GRID, "start": 0.03}],
    "default_horizon": [{"model": D}],
    "f_free": [{"x": np.array([0.0, 0.01])}],
    "f_cat": [{"x": np.array([0.0, 0.01])}],
    "fpt_density_free_sym_x": [{"t": np.array([0.5, 1.0])}],
    "fpt_density_cat_sym": [{"t": np.array([0.0, 1.0])}],
    "fpt_moments_linear": [{"xi": np.array([0.0, 0.5])}],
} | {name: [{"t": np.array([0.0, 0.5, 1.0])}] for name in (
    "mean_free", "var_free", "mean_cat", "m2_cat", "var_cat", "mean_cat_x", "m2_cat_x", "var_cat_x")
} | {name: [{"x": np.array([-0.01, 0.0, 0.01])}] for name in ("f_free_laplace", "W_cat")
} | {name: [{"xi": np.array([0.25, 0.5])}] for name in ("mean_fpt_cat", "m2_fpt_cat", "var_fpt_cat")}

#: (callable, argument, value) that the contract allows, with the reason,
#: which the callable's docstring states too
ALLOWED = {("SimConfig", "horizon", math.inf): "an infinite horizon means no censoring"}

#: public classes that carry results the library builds; they take no caller input
RESULTS = {"ProbVector", "Curve", "QuadratureError", "EstimateWithError", "LawEstimate",
           "FptEstimate", "ChainPath", "OuPath"}


def _calls():
    for mod in (eh, ou, mc):
        for name in mod.__all__:
            fn = getattr(mod, name)
            if callable(fn) and name not in RESULTS:
                label = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
                yield pytest.param(fn, {}, id=label)
                for k, extra in enumerate(MORE_CALLS.get(name, [])):
                    yield pytest.param(fn, extra, id=f"{label}-{k + 1}")


def _bad_values(value):
    """nan, +inf and -inf in place of a real value (in place of an array's last entry), and 1.5 for an int."""
    if isinstance(value, np.ndarray):
        return [np.append(value[:-1], bad) for bad in (math.nan, math.inf, -math.inf)]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    return [math.nan, math.inf, -math.inf] + ([1.5] if isinstance(value, int) else [])


@pytest.mark.parametrize("fn, extra", _calls())
def test_public_callable_rejects_non_finite_and_non_integer_arguments(fn, extra):
    params = inspect.signature(fn).parameters
    missing = sorted(set(params) - set(VALID) - set(extra))
    assert not missing, f"{fn.__name__}: add a valid value of {missing} to VALID"
    args = {name: extra.get(name, VALID[name]) for name in params}
    fn(**args)
    for name, value in args.items():
        for bad in _bad_values(value):
            shown = bad if np.ndim(bad) == 0 else bad[-1]
            if (fn.__name__, name, shown) in ALLOWED:
                fn(**(args | {name: bad}))
                continue
            with pytest.raises(ValueError) as err:
                fn(**(args | {name: bad}))
            shown = str(shown)
            assert re.match(rf"{name}\b.*(got |=){re.escape(shown)}\b", str(err.value)), (name, bad, err.value)


def test_result_classes_are_public_classes():
    public = {name: getattr(mod, name) for mod in (eh, ou, mc) for name in mod.__all__}
    assert all(isinstance(public.get(name), type) for name in RESULTS)
