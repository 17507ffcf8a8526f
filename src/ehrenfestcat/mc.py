"""Monte Carlo oracles for the chain and the jump-diffusion.

Path i of seed s draws from numpy's Philox4x64-10 keyed [s, i].  The
second counter word splits that stream into sub-streams, sub-stream m
starting at counter [0, m, 0, 0].  The chain draws from sub-stream 0,
which is ``Generator(Philox(key=[s, i]))`` itself: per event a uniform
for the holding time, then one for the edge.  The diffusion (stream
version 3) draws its reset clock from sub-stream 0, its bridge clock or,
at beta = 0, its passage uniform from sub-stream 1, and the 256 ziggurat
normals of grid block b from sub-stream 2 + b.  Philox is counter-based:
_philox_uniforms computes the uniforms of all lanes at once in numpy
array arithmetic, bit for bit as numpy's generator gives them.  Normals
come from one bit generator positioned at each lane's sub-stream in turn.
So every path is a function of (seed, i) alone, and the estimators
advance all paths of a chunk in lockstep: one numpy operation does one
chain event, or one window of OU grid steps, for every path still running.

Diffusion endpoints are exact with no grid: the time back from t to the
last reset is min(Exp(xi), t), then one Gaussian transition.  A reset
puts the process at 0, so the passage time is min(R, C), where R ~
Exp(xi) is the first reset epoch, drawn up front, and C the free passage.
At beta = 0 X(t) = e^{-alpha t}(y + B((nu/2)(e^{2 alpha t} - 1))) and B
hits -y at y^2/Z^2, Z standard normal, so C is exact (see _ou_fpt_exact).
At beta != 0 C is the end of the first grid step in which the free path
crosses 0, by a sign change or by a Brownian-bridge crossing (see
_ou_fpt_times), high by less than one step, which the estimator reports
by re-running at half the step.  Passage times past the horizon are censored.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .ehrenfest import ChainParams, Curve, ProbVector, _check_int, _check_real, rates
from .oujump import DiffusionParams

__all__ = [
    "SimConfig",
    "EstimateWithError",
    "LawEstimate",
    "FptEstimate",
    "ChainPath",
    "OuPath",
    "simulate_chain_path",
    "simulate_chain_path_clock",
    "estimate_chain_law",
    "simulate_ou_path",
    "sample_ou_endpoints",
    "estimate_ou_moments",
    "estimate_fpt",
    "default_horizon",
]

#: version of the diffusion's stream layout, written into `simulate` CSVs
STREAM_VERSION = 3

#: OU grid steps per normal sub-stream
OU_BLOCK = 256

#: OU sub-streams: the reset clock, the bridge clock, then one per normal block
_RESET_CLOCK, _BRIDGE_CLOCK, _NORMALS = 0, 1, 2

#: Philox blocks drawn per chain lane at a time, at most (64 uniforms, 32
#: events), and per pass of _philox_uniforms (uint64 arrays of 128 kB)
_CHAIN_BLOCKS, _PHILOX_PASS = 16, 16384

#: lanes per lockstep chunk: chain arrays up to 8 MB, OU window arrays 2 MB (one core's L2)
_CHAIN_LANES, _OU_LANES = 16384, 1024

_CENSOR_FLAG_FRACTION = 1e-3


@dataclass(frozen=True)
class SimConfig:
    """Simulation budget: seed, path count, optional horizon and FPT grid step.

    horizon and fpt_grid_dt default to model-dependent values, see
    default_horizon / default_fpt_grid_dt.  horizon = inf is valid and
    means no censoring: estimate_fpt takes it, and the path simulators,
    whose paths would not end, raise ValueError.
    """

    seed: int
    n_paths: int
    horizon: float | None = None
    fpt_grid_dt: float | None = None

    def __post_init__(self):
        if _check_int("seed", self.seed) >= 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        _check_int("n_paths", self.n_paths, "positive")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.fpt_grid_dt is not None:
            _check_real("fpt_grid_dt", self.fpt_grid_dt, "positive")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)
                and self.std_error >= 0.0):
            raise ValueError(f"estimate {self.value} +- {self.std_error} needs a finite value "
                             "and a finite non-negative std_error")


@dataclass(frozen=True)
class LawEstimate:
    """Empirical distribution over the states with per-entry standard errors."""

    law: ProbVector
    std_error: np.ndarray
    n: int


@dataclass(frozen=True)
class ChainPath:
    """Piecewise-constant trajectory: state states[i] holds on [times[i], times[i+1])."""

    times: np.ndarray
    states: np.ndarray

    def state_at(self, t):
        if not t >= self.times[0]:
            raise ValueError(f"t={t} precedes the path's start {self.times[0]}")
        idx = np.searchsorted(self.times, t, side="right") - 1
        return int(self.states[idx])

    def occupation_fraction(self, state, horizon):
        bounds = np.append(self.times, horizon)
        mask = self.states == state
        return float(np.sum(bounds[1:][mask] - self.times[mask]) / horizon)


@dataclass(frozen=True)
class OuPath:
    """Trajectory sampled on the uniform FPT grid."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class FptEstimate:
    mean: EstimateWithError
    variance: EstimateWithError
    density: Curve
    n_censored: int
    censored_fraction: float
    flagged: bool
    #: mean at half the grid step; None for the chain, at beta = 0 and without half_step_check
    mean_half_step: EstimateWithError | None = None


class _LaneStreams:
    """One Philox4x64 bit generator, positioned in turn at sub-streams of
    the lanes keyed [seed, lane] through its ``state`` setter, for the
    normals and the scalar oracles.  It is built from seed 0 (no OS entropy
    is read); every positioning replaces its key."""

    def __init__(self, seed):
        self.seed = seed
        self.gen = np.random.Generator(np.random.Philox(0))

    def at(self, lane, sub=0) -> np.random.Generator:
        """The generator at the start of sub-stream `sub` of `lane`."""
        self.gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": [0, sub, 0, 0], "key": [self.seed, lane]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self.gen

    def normals(self, lanes, n, sub, used=None):
        """(lanes, n) array: row r holds the first used[r] (default all n)
        standard normals of sub-stream `sub` of lanes[r], then zeros."""
        out = np.zeros((len(lanes), n))
        views = out if used is None else [row[:k] for row, k in zip(out, used.tolist())]
        for row, lane in zip(views, lanes.tolist()):
            self.at(lane, sub).standard_normal(out=row)
        return out


#: Philox4x64 multipliers and key increments (Salmon et al., SC 2011; Random123)
_PHILOX_M0, _PHILOX_M1, _PHILOX_W0, _PHILOX_W1 = (
    0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a, m):
    """High and low words of the 128-bit products of the uint64 array a and the constant m."""
    a0, a1, m0, m1 = a & 0xFFFFFFFF, a >> 32, m & 0xFFFFFFFF, m >> 32
    mid = a1 * m0 + ((a0 * m0) >> 32)  # no sum of 32-bit halves overflows 64 bits
    return a1 * m1 + (mid >> 32) + ((a0 * m1 + (mid & 0xFFFFFFFF)) >> 32), a * m


def _philox_uniforms(seed, lanes, sub, block, n_blocks):
    """(len(lanes), 4 n_blocks) array: row r holds the next 4 n_blocks
    ``random()`` of sub-stream `sub` of lanes[r] after `block` blocks.
    They are the words of Philox4x64-10 at key [seed, lane] and counters
    [block + 1, sub, 0, 0] ... [block + n_blocks, sub, 0, 0] (numpy bumps
    the counter before each block), as (w >> 11) 2^-53.  Runs in passes
    of _PHILOX_PASS blocks.  The round keys are Python ints mod 2^64:
    numpy warns when a sum of uint64 scalars overflows."""
    lanes = lanes.astype(np.uint64)
    keys = [((seed + r * _PHILOX_W0) % 2**64, (r * _PHILOX_W1) % 2**64) for r in range(10)]
    out = np.empty((lanes.size * n_blocks, 4))
    for lo in range(0, len(out), _PHILOX_PASS):
        i = np.arange(lo, min(lo + _PHILOX_PASS, len(out)))
        key, c0 = lanes[i // n_blocks], (i % n_blocks + block + 1).astype(np.uint64)
        c1, c2, c3 = np.full_like(c0, sub), np.zeros_like(c0), np.zeros_like(c0)
        for k0, k1 in keys:
            (hi0, lo0), (hi1, lo1) = _mulhilo(c0, _PHILOX_M0), _mulhilo(c2, _PHILOX_M1)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ (key + k1), lo0
        for w, c in enumerate((c0, c1, c2, c3)):
            out[lo : lo + i.size, w] = c >> 11
    out *= 2.0**-53
    return out.reshape(lanes.size, 4 * n_blocks)


def default_horizon(model) -> float:
    """50 relaxation times of the slowest relevant rate."""
    if isinstance(model, ChainParams):
        base = model.lam + model.mu
    elif isinstance(model, DiffusionParams):
        base = model.alpha
    else:
        raise TypeError(f"model must be ChainParams or DiffusionParams, got {type(model)}")
    slowest = min(base, model.xi) if model.xi > 0.0 else base
    return 50.0 / slowest


def default_fpt_grid_dt(d: DiffusionParams) -> float:
    return math.sqrt(d.nu) / (50.0 * max(d.alpha, 1.0))


# ----------------------------------------------------------------------
# chain simulation


@lru_cache(maxsize=16)
def _chain_table(p: ChainParams):
    """Per state index k + N: the target indices of its (at most three)
    edges, the cumulative jump probabilities of all but the last edge,
    padded with +inf, and the total rate, as read-only arrays.  The edge of
    a uniform u is then the count of cumulative entries below u
    (searchsorted, side left)."""
    targets = np.zeros((2 * p.N + 1, 3), dtype=np.int64)
    cum = np.full((2 * p.N + 1, 2), np.inf)
    total = np.empty(2 * p.N + 1)
    for k in range(-p.N, p.N + 1):
        edges = rates(p, k)
        rvals = np.array([r for _, r in edges])
        total[k + p.N] = rvals.sum()
        cum[k + p.N, : len(edges) - 1] = (np.cumsum(rvals) / total[k + p.N])[:-1]
        targets[k + p.N, : len(edges)] = [t + p.N for t, _ in edges]
    for table in (targets, cum, total):
        table.flags.writeable = False
    return targets, cum, total


def _chain_lanes(p: ChainParams, j, seed, lanes, until, absorb=False, trace=None):
    """Run the chain from j on every lane in lockstep, one event per step.

    Each event draws the holding time and then the edge.  A lane stops at
    its first event time at or past `until`, in the state it then holds,
    or, with `absorb`, at its first jump into 0.  Returns per lane the
    final state and the time of the jump into 0 (nan if none).  With
    `trace` a list, every jump appends (lane positions, times, indices k + N).
    Lanes run in chunks of _CHAIN_LANES; the running lanes draw their next
    1, 2, 4, ... up to _CHAIN_BLOCKS Philox blocks together.
    """
    targets, cum, total = _chain_table(p)
    state, hit = np.empty(len(lanes), dtype=np.int64), np.full(len(lanes), np.nan)
    for chunk in range(0, len(lanes), _CHAIN_LANES):
        pos = np.arange(chunk, min(chunk + _CHAIN_LANES, len(lanes)))
        k, clock, block, n = np.full(pos.size, j + p.N), np.zeros(pos.size), 0, 1
        while pos.size:
            u = _philox_uniforms(seed, lanes[pos], 0, block, n)
            block, n = block + n, min(2 * n, _CHAIN_BLOCKS)
            row = np.arange(pos.size)
            for e in range(0, u.shape[1], 2):
                clock = clock + -np.log1p(-u[row, e]) / total[k]
                stop = clock >= until
                k = np.where(stop, k, targets[k, (cum[k] < u[row, e + 1, None]).sum(axis=1)])
                if absorb:
                    zero = ~stop & (k == p.N)
                    hit[pos[zero]] = clock[zero]
                    stop |= zero
                if stop.any():
                    state[pos[stop]] = k[stop]
                    keep = ~stop
                    pos, row, k, clock = pos[keep], row[keep], k[keep], clock[keep]
                    if not pos.size:
                        break
                if trace is not None:
                    trace.append((pos, clock, k))
    return state - p.N, hit


def simulate_chain_path(p: ChainParams, j, cfg: SimConfig, path_index) -> ChainPath:
    """One exact event-driven trajectory over [0, horizon], merged-rate form.

    At state k the holding time is exponential with the total outgoing
    rate and the next state is drawn proportionally to the individual
    rates (catastrophe edges included).  This is the estimators' kernel
    run on the one lane `path_index`, recording its jumps.
    """
    j = p.check_state(j, "j")
    horizon = _check_real("horizon", cfg.horizon if cfg.horizon is not None else default_horizon(p))
    trace = []
    _chain_lanes(p, j, cfg.seed, np.array([_check_int("path_index", path_index)]), horizon, trace=trace)
    times = [0.0] + [float(c[0]) for _, c, _ in trace]
    states = [j] + [int(k[0]) - p.N for _, _, k in trace]
    return ChainPath(np.array(times), np.array(states, dtype=np.int64))


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


def estimate_chain_law(p: ChainParams, j, t, cfg: SimConfig) -> LawEstimate:
    """Empirical law of M(t) over cfg.n_paths independent paths."""
    j = p.check_state(j, "j")
    horizon = cfg.horizon if cfg.horizon is not None else default_horizon(p)
    if _check_real("t", t, "non-negative") > horizon:
        raise ValueError(f"t={t} is past the horizon {horizon}")
    # the state held at t is the one a lane holds at its first event time > t
    until = np.nextafter(t, np.inf)
    state, _ = _chain_lanes(p, j, cfg.seed, np.arange(cfg.n_paths), until)
    phat = np.bincount(state + p.N, minlength=2 * p.N + 1) / cfg.n_paths
    se = np.sqrt(phat * (1.0 - phat) / cfg.n_paths)
    return LawEstimate(ProbVector(p.N, phat), se, cfg.n_paths)


# ----------------------------------------------------------------------
# diffusion simulation


def _ou_transition(d: DiffusionParams, x0, dt):
    """Mean and standard deviation of X(dt) given X(0) = x0, without resets."""
    mean = d.beta + (x0 - d.beta) * np.exp(-d.alpha * dt)
    return mean, np.sqrt(0.5 * d.nu * -np.expm1(-2.0 * d.alpha * dt))


def _exp_clock(seed, lanes, rate, sub=_RESET_CLOCK):
    """First event time of a Poisson(rate) clock per lane (inf at rate 0)."""
    if rate == 0.0:
        return np.full(len(lanes), np.inf)
    return -np.log1p(-_philox_uniforms(seed, lanes, sub, 0, 1)[:, 0]) / rate


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


def sample_ou_endpoints(d: DiffusionParams, y, t, cfg: SimConfig) -> np.ndarray:
    """X(t) across cfg.n_paths paths, exact in distribution (no grid).

    The time back from t to the last reset is min(Exp(xi), t); the path
    then moves by one Gaussian transition from 0 over that time, or from y
    over all of t when no reset came.
    """
    _check_real("y", y)
    _check_real("t", t, "positive")
    lanes = np.arange(cfg.n_paths)
    back = np.minimum(_exp_clock(cfg.seed, lanes, d.xi), t)
    z = _LaneStreams(cfg.seed).normals(lanes, 1, _NORMALS)[:, 0]
    mean, s = _ou_transition(d, np.where(back < t, 0.0, y), back)
    return mean + s * z


def estimate_ou_moments(d: DiffusionParams, y, t, cfg: SimConfig):
    """Sample mean and second moment of X(t) with standard errors."""
    if cfg.n_paths < 2:
        raise ValueError(f"moments need at least 2 paths, got {cfg.n_paths}")
    x = sample_ou_endpoints(d, y, t, cfg)
    n = x.size
    mean = float(x.mean())
    m2 = float((x**2).mean())
    se_mean = float(x.std(ddof=1) / math.sqrt(n))
    se_m2 = float((x**2).std(ddof=1) / math.sqrt(n))
    return EstimateWithError(mean, se_mean, n), EstimateWithError(m2, se_m2, n)


# ----------------------------------------------------------------------
# first-passage estimation


def _ou_fpt_times(d: DiffusionParams, y, dt, horizon, cfg: SimConfig):
    """Passage time through 0 per lane (see the module docstring), nan past the horizon.

    Windows of w steps, alpha * dt * w <= 1, keep the weights e^{alpha dt j}
    near 1: x_k = beta + e^{-alpha dt k} (x_0 - beta + sum_{j<=k} sd
    e^{alpha dt j} z_j) is one cumsum over all lanes.  The bridge between
    x_{k-1} and x_k of one sign touches 0 with chance exp(-a), a = 2
    e^{-alpha dt} x_{k-1} x_k / sd^2 (exact at beta = 0, where X is a
    time-changed Brownian motion; a locally linear boundary otherwise); the
    first crossing is the first step at which the summed hazard -log(1 -
    e^{-a}) reaches the lane's Exp(1) bridge clock.  Steps with a >= 40
    are left out of the sum: each adds below e^{-40} = 4.3e-18, and the
    clock's density is at most 1, so a passage moves with chance below
    4.3e-18 per step.  A lane runs only the ceil(min(R, horizon) / dt)
    steps that can set its time and draws only their normals.  Lanes run
    in chunks of _OU_LANES.  With xi = 0 and an infinite horizon no step
    count bounds the walk, and it raises ValueError.
    """
    if d.xi == 0.0 and math.isinf(horizon):
        raise ValueError("the OU grid walk has no last step at xi = 0 with an infinite horizon")
    ea = math.exp(-d.alpha * dt)
    _, sd = _ou_transition(d, 0.0, dt)
    w = max(1, min(OU_BLOCK, int(1.0 / (d.alpha * dt))))
    steps = np.arange(1.0, w + 1.0)
    gain, decay = sd * ea**-steps, ea**steps
    streams, lanes = _LaneStreams(cfg.seed), np.arange(cfg.n_paths)
    fpt = _exp_clock(cfg.seed, lanes, d.xi)
    n_steps = np.ceil(np.minimum(fpt, horizon) / dt).astype(np.int64)
    clock = _exp_clock(cfg.seed, lanes, 1.0, sub=_BRIDGE_CLOCK)
    for chunk in range(0, cfg.n_paths, _OU_LANES):
        pos = np.arange(chunk, min(chunk + _OU_LANES, cfg.n_paths))
        x, hazard, block = np.full(pos.size, float(y)), np.zeros(pos.size), 0
        while pos.size:
            used = np.minimum(n_steps[pos] - block * OU_BLOCK, OU_BLOCK)
            z = streams.normals(lanes[pos], OU_BLOCK, _NORMALS + block, used)
            row = np.arange(pos.size)
            for lo in range(0, OU_BLOCK, w):
                m = min(w, OU_BLOCK - lo)
                path = d.beta + decay[:m] * (x[:, None] - d.beta
                                             + np.cumsum(gain[:m] * z[row, lo : lo + m], axis=1))
                a = (2.0 * ea / sd**2) * np.hstack([x[:, None], path[:, :-1]]) * path
                near = a < 40.0
                live = np.flatnonzero(near.any(axis=1))
                h, near = np.zeros((live.size, m)), near[live]
                with np.errstate(divide="ignore"):  # a <= 0 is a sign change: hazard inf
                    h[near] = -np.log1p(-np.exp(-np.maximum(a[live][near], 0.0)))
                summed = hazard[live, None] + np.cumsum(h, axis=1)
                crossed = summed >= clock[pos[live], None]
                first, hit = crossed.argmax(axis=1), crossed[:, -1]  # the sum never falls
                step0 = block * OU_BLOCK + lo
                fpt[pos[live[hit]]] = np.minimum(fpt[pos[live[hit]]], (step0 + first[hit] + 1) * dt)
                hazard[live] = summed[:, -1]
                keep = (step0 + m < n_steps[pos]) & (hazard < clock[pos])
                pos, row, x, hazard = pos[keep], row[keep], path[keep, -1], hazard[keep]
                if not pos.size:
                    break
            block += 1
    fpt[fpt > horizon] = np.nan
    return fpt


def _ou_fpt_exact(d: DiffusionParams, y, horizon, cfg: SimConfig):
    """Exact passage time per lane at beta = 0, nan past the horizon: min(R,
    log1p(2 y^2 / (nu Z^2)) / (2 alpha)), |Z| = -ndtri(u / 2) with u = 1 -
    random() of sub-stream 1 in (0, 1]; at |Z| = 0 the free passage is inf."""
    lanes = np.arange(cfg.n_paths)
    z = ndtri(0.5 * (1.0 - _philox_uniforms(cfg.seed, lanes, _BRIDGE_CLOCK, 0, 1)[:, 0]))
    with np.errstate(divide="ignore"):
        free = np.log1p(2.0 * y * y / (d.nu * z * z)) / (2.0 * d.alpha)
    fpt = np.minimum(_exp_clock(cfg.seed, lanes, d.xi), free)
    fpt[fpt > horizon] = np.nan
    return fpt


def _moment_estimates(times):
    finite = times[~np.isnan(times)]
    n = finite.size
    if n < 2:
        raise ValueError(f"{times.size - n} of {times.size} paths are censored at the horizon; "
                         "passage moments need at least 2 uncensored paths")
    mean = float(finite.mean())
    var = float(finite.var(ddof=1))
    se_mean = float(math.sqrt(var / n))
    centered = finite - mean
    m4 = float((centered**4).mean())
    se_var = float(math.sqrt(max(m4 - var**2, 0.0) / n))
    return EstimateWithError(mean, se_mean, n), EstimateWithError(var, se_var, n)


def _fpt_histogram(times, n_total, n_bins=50) -> Curve:
    finite = np.sort(times[~np.isnan(times)])
    hi = finite[min(finite.size - 1, int(0.995 * finite.size))]
    edges = np.linspace(0.0, hi, n_bins + 1)
    counts, _ = np.histogram(finite, bins=edges)
    width = edges[1] - edges[0]
    density = counts / (n_total * width)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return Curve(mids, density)


def estimate_fpt(model, start, cfg: SimConfig, half_step_check=True) -> FptEstimate:
    """First-passage-time estimates through 0 from a nonzero start.

    Chain passage times are exact event times, and so are diffusion
    passage times at beta = 0 (two draws per path, no grid).  At beta != 0
    they are min(first reset epoch, end of the first grid step that crosses
    0), biased high by less than one step, and with half_step_check the
    mean is re-run at half the step so the bias can be judged.  Paths that
    outlive the horizon are censored, counted, and flag the estimate beyond
    0.1%; fewer than two paths, or than two uncensored ones, raise ValueError.
    """
    _check_real("start", start, "nonzero")
    if cfg.n_paths < 2:
        raise ValueError(f"passage moments need at least 2 paths, got {cfg.n_paths}")
    default = default_horizon(model)  # the model's type check: TypeError past the two models
    horizon = default if cfg.horizon is None else cfg.horizon
    half = None
    if isinstance(model, ChainParams):
        start = model.check_state(start, "start")
        _, times = _chain_lanes(model, start, cfg.seed, np.arange(cfg.n_paths), horizon, absorb=True)
    elif model.beta == 0.0:
        times = _ou_fpt_exact(model, start, horizon, cfg)
    else:
        dt = cfg.fpt_grid_dt if cfg.fpt_grid_dt is not None else default_fpt_grid_dt(model)
        times = _ou_fpt_times(model, start, dt, horizon, cfg)
        if half_step_check:
            half, _ = _moment_estimates(_ou_fpt_times(model, start, dt / 2.0, horizon, cfg))
    censored = int(np.isnan(times).sum())
    mean, variance = _moment_estimates(times)
    frac = censored / cfg.n_paths
    return FptEstimate(
        mean=mean,
        variance=variance,
        density=_fpt_histogram(times, cfg.n_paths),
        n_censored=censored,
        censored_fraction=frac,
        flagged=frac > _CENSOR_FLAG_FRACTION,
        mean_half_step=half,
    )
