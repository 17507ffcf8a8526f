"""Scalar reference simulators for the tests of the Monte Carlo estimators.

They draw one number at a time, in Python loops, from the same Philox
streams as the estimators (stream version 3), and they share none of the
estimators' lockstep kernels: simulate_chain_path_clock runs catastrophes
as their own Poisson clock, and simulate_ou_path walks the reset OU
process step by step on the uniform grid.  tests/test_mc.py compares
the estimators' lanes and laws against them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ehrenfestcat.ehrenfest import ChainParams, _check_int, _check_real
from ehrenfestcat.mc import (OU_BLOCK, _NORMALS, _RESET_CLOCK, ChainPath, SimConfig, _chain_table,
                             _LaneStreams, _ou_transition, default_fpt_grid_dt, default_horizon)
from ehrenfestcat.oujump import DiffusionParams


@dataclass(frozen=True)
class OuPath:
    """Trajectory sampled on the uniform FPT grid."""

    times: np.ndarray
    values: np.ndarray


#: simulate_chain_path_clock's streams per seed, repositioned per path (2 us; building one takes 26 us); one thread at a time
_clock_streams = lru_cache(maxsize=4)(_LaneStreams)


def simulate_chain_path_clock(p: ChainParams, j, cfg: SimConfig, path_index) -> ChainPath:
    """One trajectory with catastrophes as an independent Poisson(xi) clock.

    Statistically equivalent to the merged-rate simulator; kept as a
    scalar cross-check of the rate bookkeeping (catastrophes landing while
    the chain already sits at 0 are invisible and not recorded).
    """
    j = p.check_state(j, "j")
    horizon = _check_real("horizon", cfg.horizon if cfg.horizon is not None else default_horizon(p))
    rng = _clock_streams(cfg.seed).at(_check_int("path_index", path_index))
    targets, cum, total = (table.tolist() for table in _chain_table(replace(p, xi=0.0)))
    times = [0.0]
    states = [j]
    t = 0.0
    k = j
    next_cat = math.inf
    if p.xi > 0.0:
        next_cat = -math.log1p(-rng.random()) / p.xi
    while True:
        t_move = t + -math.log1p(-rng.random()) / total[k + p.N]
        if next_cat < t_move:
            t = next_cat
            next_cat = t + -math.log1p(-rng.random()) / p.xi
            if t >= horizon:
                break
            if k != 0:
                k = 0
                times.append(t)
                states.append(0)
            continue
        t = t_move
        if t >= horizon:
            break
        k = targets[k + p.N][bisect_left(cum[k + p.N], rng.random())] - p.N
        times.append(t)
        states.append(k)
    return ChainPath(np.array(times), np.array(states, dtype=np.int64))


def simulate_ou_path(d: DiffusionParams, y, cfg: SimConfig, path_index) -> OuPath:
    """One reset-OU trajectory sampled exactly on the uniform grid, step by step.

    The reset epochs are the Poisson(xi) clock of the lane's sub-stream 0.
    A step that contains a reset is an exact draw started from 0 at the
    last reset epoch in it; any other step is the exact transition.  Kept
    as the scalar cross-check of the estimators' kernels.
    """
    _check_real("y", y)
    horizon = _check_real("horizon", cfg.horizon if cfg.horizon is not None else default_horizon(d))
    dt = cfg.fpt_grid_dt if cfg.fpt_grid_dt is not None else default_fpt_grid_dt(d)
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    streams = _LaneStreams(cfg.seed)
    # the reset clock has a generator of its own: `streams` moves to each normal block
    resets = _LaneStreams(cfg.seed).at(_check_int("path_index", path_index), _RESET_CLOCK)
    reset = -math.log1p(-resets.random()) / d.xi if d.xi > 0.0 else math.inf
    ea, sd = math.exp(-d.alpha * dt), math.sqrt(0.5 * d.nu * -math.expm1(-2.0 * d.alpha * dt))
    values = np.empty(n_steps + 1)
    values[0] = x = y
    for step in range(n_steps):
        if step % OU_BLOCK == 0:
            z = streams.at(path_index, _NORMALS + step // OU_BLOCK).standard_normal(OU_BLOCK)
        t_next, back = (step + 1) * dt, None
        while reset <= t_next:
            back, reset = t_next - reset, reset - math.log1p(-resets.random()) / d.xi
        if back is None:
            x = d.beta + (x - d.beta) * ea + sd * z[step % OU_BLOCK]
        else:
            mean, s = _ou_transition(d, 0.0, back)
            x = float(mean + s * z[step % OU_BLOCK])
        values[step + 1] = x
    return OuPath(np.arange(n_steps + 1) * dt, values)
