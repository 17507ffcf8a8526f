"""Monte Carlo estimator checks against the closed-form laws.

Statistical assertions use fixed seeds, so they are deterministic: each
was verified to pass at build time and any later failure means the
estimator (not the luck) changed.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import mc
from ehrenfestcat import oujump as ou
from scalar_oracles import simulate_chain_path_clock, simulate_ou_path

P = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
D = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        mc.SimConfig(seed=-1, n_paths=10)
    with pytest.raises(ValueError):
        mc.SimConfig(seed=1, n_paths=0)
    with pytest.raises(ValueError):
        mc.SimConfig(seed=1, n_paths=10, horizon=-1.0)
    with pytest.raises(ValueError):
        mc.EstimateWithError(1.0, -0.5, 10)
    for value, se in ((math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite value"):
            mc.EstimateWithError(value, se, 10)


def _scalar_chain_path(p, j, seed, lane, horizon):
    """Reference: the merged-rate event loop, one scalar draw at a time, on
    numpy's own Generator(Philox(key=[seed, lane]))."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, lane], dtype=np.uint64)))
    times, states, t, k = [0.0], [j], 0.0, j
    while True:
        edges = eh.rates(p, k)
        rvals = np.array([r for _, r in edges])
        t += -math.log1p(-rng.random()) / rvals.sum()
        if t >= horizon:
            return np.array(times), np.array(states)
        k = edges[np.searchsorted(np.cumsum(rvals) / rvals.sum(), rng.random())][0]
        times.append(t)
        states.append(k)


def test_chain_path_determinism():
    cfg = mc.SimConfig(seed=42, n_paths=1, horizon=20.0)
    a = mc.simulate_chain_path(P, 6, cfg, 7)
    b = mc.simulate_chain_path(P, 6, cfg, 7)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    c = mc.simulate_chain_path(P, 6, cfg, 8)
    assert not np.array_equal(a.times, c.times)


def test_chain_path_stays_in_state_space():
    cfg = mc.SimConfig(seed=3, n_paths=1, horizon=200.0)
    for idx in range(5):
        path = mc.simulate_chain_path(P, 6, cfg, idx)
        assert path.states.min() >= -P.N and path.states.max() <= P.N
        assert np.all(np.diff(path.times) > 0)


def test_chain_path_high_reset_rate_occupation():
    # occupation fraction of state 0 approaches the stationary weight,
    # which at xi = 50 (exit rate 12 from the origin) is about 0.82
    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=50.0)
    q0 = eh.q_cat_row(p).prob(0)
    cfg = mc.SimConfig(seed=9, n_paths=1, horizon=100.0)
    fractions = [
        mc.simulate_chain_path(p, 6, cfg, i).occupation_fraction(0, 100.0)
        for i in range(3)
    ]
    avg = np.mean(fractions)
    assert avg > 0.8
    assert avg == pytest.approx(q0, abs=0.02)


def test_occupation_fraction_clips_at_the_horizon():
    # the horizon clips every holding interval: fractions stay in [0, 1] and
    # sum to 1 over the states, also at horizons before the path's last event
    path = mc.simulate_chain_path(P, 6, mc.SimConfig(seed=1, n_paths=1, horizon=5.0), 0)
    assert path.times[-1] > 1.0 and path.states[path.times < 0.1].tolist() == [6, 5, 6]
    for horizon in (5.0, 1.0, 0.1):
        fractions = np.array([path.occupation_fraction(k, horizon) for k in range(-P.N, P.N + 1)])
        assert np.all((0.0 <= fractions) & (fractions <= 1.0))
        assert abs(fractions.sum() - 1.0) <= 1e-15
    # at the path's own horizon no interval is clipped: the unclipped sums
    bounds = np.append(path.times, 5.0)
    for k in range(-P.N, P.N + 1):
        mask = path.states == k
        assert path.occupation_fraction(k, 5.0) == float(np.sum(bounds[1:][mask] - path.times[mask]) / 5.0)
    assert path.occupation_fraction(0, 0.1) == 0.0  # first held at 1.2; unclipped it read -32.98
    assert path.occupation_fraction(99, 5.0) == 0.0  # never visited
    for horizon in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="^horizon must be finite and positive"):
            path.occupation_fraction(0, horizon)
    for state in (2.5, "0", None):
        with pytest.raises(ValueError, match="^state must be an integer"):
            path.occupation_fraction(state, 5.0)


def test_estimate_chain_law_matches_closed_form():
    cfg = mc.SimConfig(seed=101, n_paths=20000, horizon=50.0)
    est = mc.estimate_chain_law(P, 6, 1.0, cfg)
    closed = eh.p_cat_closed_row(P, 6, 1.0).values
    se = np.sqrt(closed * (1.0 - closed) / cfg.n_paths)
    z = np.abs(est.law.values - closed) / np.maximum(se, 1e-12)
    assert z.max() < 4.0
    # empirical measure: integer counts over n, exact up to float division
    assert est.law.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_estimate_chain_law_long_time_is_stationary():
    cfg = mc.SimConfig(seed=102, n_paths=20000, horizon=60.0)
    t = 40.0 / (P.lam + P.mu + P.xi)
    est = mc.estimate_chain_law(P, 6, t, cfg)
    q = eh.q_cat_row(P).values
    se = np.sqrt(q * (1.0 - q) / cfg.n_paths)
    assert (np.abs(est.law.values - q) / np.maximum(se, 1e-12)).max() < 4.0


def test_estimate_chain_law_consistent_with_path_simulator():
    # the lockstep kernel over 20 lanes at once (with refills: about 60
    # events per lane) against the one-lane path and the scalar event loop
    # on numpy's own stream: states bit for bit, event times to a few ulps
    # (numpy's log1p and libm's differ by 1 ulp on some inputs)
    cfg = mc.SimConfig(seed=77, n_paths=20, horizon=5.0)
    paths = [mc.simulate_chain_path(P, 6, cfg, idx) for idx in range(20)]
    for idx, path in enumerate(paths):
        times, states = _scalar_chain_path(P, 6, cfg.seed, idx, cfg.horizon)
        assert np.array_equal(path.states, states)
        np.testing.assert_allclose(path.times, times, rtol=1e-15, atol=0.0)
    for t in (0.0, 0.3, 1.3, 4.9):
        lanes, _ = mc._chain_lanes(P, 6, cfg.seed, np.arange(20), np.nextafter(t, np.inf))
        assert lanes.tolist() == [path.state_at(t) for path in paths]
    # passage times: the first visit of 0 on each path
    _, hit = mc._chain_lanes(P, 6, cfg.seed, np.arange(20), cfg.horizon, absorb=True)
    for path, h in zip(paths, hit):
        zero = np.flatnonzero(path.states == 0)
        assert (np.isnan(h) and zero.size == 0) or h == path.times[zero[0]]


def test_clock_paths_pinned_across_seeds():
    # the clock simulator repositions one cached generator per seed; paths
    # interleaved across seeds and repeated are those of stream version 3
    h = hashlib.sha256()
    paths = {}
    for seed, i in [(7, 0), (7, 1), (11, 0), (7, 2), (11, 5), (7, 0)]:
        path = simulate_chain_path_clock(P, 6, mc.SimConfig(seed=seed, n_paths=10, horizon=5.0), i)
        h.update(path.times.tobytes())
        h.update(path.states.tobytes())
        paths.setdefault((seed, i), []).append(path)
    a, b = paths[7, 0]
    assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
    assert h.hexdigest()[:16] == "fbf8d52114e2aa38"


def test_merged_vs_clock_simulators_same_law():
    # two-sample chi-square on the t = 1 law, merged-rate vs independent
    # catastrophe clock, 1e5 paths each
    n = 100000
    t = 1.0
    counts = np.zeros((2, 2 * P.N + 1), dtype=np.int64)
    cfg_a = mc.SimConfig(seed=501, n_paths=n, horizon=1.5)
    cfg_b = mc.SimConfig(seed=502, n_paths=n, horizon=1.5)
    counts[0] = np.rint(mc.estimate_chain_law(P, 6, t, cfg_a).law.values * n)
    for i in range(n):
        path = simulate_chain_path_clock(P, 6, cfg_b, i)
        counts[1, path.state_at(t) + P.N] += 1
    # merge sparse cells so the chi-square approximation is sound
    pooled = counts.sum(axis=0)
    order = np.argsort(pooled)[::-1]
    merged = []
    bucket = np.zeros(2, dtype=np.int64)
    for idx in order:
        bucket += counts[:, idx]
        if bucket.sum() >= 10:
            merged.append(bucket.copy())
            bucket[:] = 0
    if bucket.sum() > 0:
        merged.append(bucket.copy())
    merged = np.array(merged).T
    stat = ((merged[0] - merged[1]) ** 2 / (merged[0] + merged[1])).sum()
    dof = merged.shape[1] - 1
    p_value = stats.chi2.sf(stat, dof)
    assert p_value > 0.001


def test_ou_path_determinism_and_endpoint_law():
    cfg = mc.SimConfig(seed=5, n_paths=1, horizon=2.0, fpt_grid_dt=0.004)
    a = simulate_ou_path(D, 0.03, cfg, 2)
    b = simulate_ou_path(D, 0.03, cfg, 2)
    assert np.array_equal(a.values, b.values)
    # the grid walk with resets and the exact endpoint sampler draw X(2)
    # from one law: two-sample Kolmogorov-Smirnov at the 1% critical value
    walk = np.array([simulate_ou_path(D, 0.03, cfg, i).values[-1] for i in range(1000)])
    exact = mc.sample_ou_endpoints(D, 0.03, 2.0, mc.SimConfig(seed=6, n_paths=10000))
    res = stats.ks_2samp(walk, exact)
    assert res.statistic < 1.63 * math.sqrt((walk.size + exact.size) / (walk.size * exact.size))


def test_lane_outputs_prefix_invariant():
    # each lane is a function of (seed, lane) alone: the first lanes of a
    # larger run (which spans two lockstep chunks) are the same values
    seed = 2**63 + 12345
    small, large = mc.SimConfig(seed=seed, n_paths=300), mc.SimConfig(seed=seed, n_paths=17000)
    for until, absorb in ((1.0, False), (mc.default_horizon(P), True)):
        for a, b in zip(mc._chain_lanes(P, 3, seed, np.arange(300), until, absorb),
                        mc._chain_lanes(P, 3, seed, np.arange(17000), until, absorb)):
            assert np.array_equal(a, b[:300], equal_nan=True)
    assert np.array_equal(mc.sample_ou_endpoints(D, 0.05, 1.0, small),
                          mc.sample_ou_endpoints(D, 0.05, 1.0, large)[:300])
    dt = 4.0 * mc.default_fpt_grid_dt(D)
    a = mc._ou_fpt_times(D, 0.03, dt, 25.0, small)
    b = mc._ou_fpt_times(D, 0.03, dt, 25.0, dataclasses.replace(large, n_paths=4500))
    assert np.array_equal(a, b[:300], equal_nan=True)
    # and the estimators are the summaries of those lanes
    law = mc.estimate_chain_law(P, 3, 1.0, small).law.values
    states, _ = mc._chain_lanes(P, 3, seed, np.arange(300), np.nextafter(1.0, np.inf))
    assert np.array_equal(law, np.bincount(states + P.N, minlength=2 * P.N + 1) / 300)


def _walk_passage(d, y, cfg, lane, dt, horizon):
    """Reference passage time of one lane: the first step of the xi = 0
    grid walk at which the summed bridge hazard reaches the lane's Exp(1)
    bridge clock (a sign change has infinite hazard), or the first reset
    epoch from numpy's own stream at sub-stream 0 if that comes first;
    nan past the horizon."""
    free = dataclasses.replace(d, xi=0.0)
    x = simulate_ou_path(free, y, cfg, lane).values
    clock = -math.log1p(-mc._LaneStreams(cfg.seed).at(lane, mc._BRIDGE_CLOCK).random())
    ea = math.exp(-d.alpha * dt)
    prod = x[:-1] * x[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        hazard = np.cumsum(np.where(prod > 0.0, -np.log1p(-np.exp(-2.0 * ea * prod / (0.5 * d.nu * (1.0 - ea**2)))),
                                    np.inf))
    crossed = np.flatnonzero(hazard >= clock)
    t = (crossed[0] + 1) * dt if crossed.size else math.inf
    if d.xi > 0.0:
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, lane], dtype=np.uint64)))
        t = min(t, -math.log1p(-rng.random()) / d.xi)
    return t if t <= horizon else math.nan


def test_ou_fpt_lanes_match_grid_walk():
    # xi = 0: the lockstep passage kernel (cumsum over windows of w steps)
    # stops at the first step of the step-by-step walk where the summed
    # bridge hazard reaches the lane's Exp(1) bridge clock; a sign change
    # has infinite hazard.  dt = 0.3 gives 2-step windows, 0.004 windows
    # of 208 steps.
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.0)
    for dt, horizon in ((0.3, 30.0), (0.004, 4.0)):
        cfg = mc.SimConfig(seed=8, n_paths=40, horizon=horizon, fpt_grid_dt=dt)
        times = mc._ou_fpt_times(d, 0.03, dt, horizon, cfg)
        ref = [_walk_passage(d, 0.03, cfg, i, dt, horizon) for i in range(40)]
        assert np.array_equal(times, ref, equal_nan=True)
        assert np.isfinite(times).sum() > 20
    # the bridge finds crossings that the sign test misses
    cfg = mc.SimConfig(seed=8, n_paths=2000, horizon=4.0, fpt_grid_dt=0.3)
    walks = [simulate_ou_path(d, 0.03, cfg, i).values for i in range(2000)]
    sign = [np.flatnonzero(w <= 0.0) for w in walks]
    sign = np.array([s[0] * 0.3 if s.size and s[0] * 0.3 <= 4.0 else np.nan for s in sign])
    times = mc._ou_fpt_times(d, 0.03, 0.3, 4.0, cfg)
    assert np.all(np.isnan(sign) | (times <= sign))
    assert np.sum(times < sign) > 100


def test_ou_fpt_lanes_with_resets_match_grid_walk():
    # xi = 0.5: a lane draws normals only up to its first reset epoch R, so
    # its passage time is min(R, passage of the free walk) at both step sizes
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)
    for dt, horizon in ((0.3, 30.0), (0.004, 4.0)):
        cfg = mc.SimConfig(seed=8, n_paths=40, horizon=horizon, fpt_grid_dt=dt)
        times = mc._ou_fpt_times(d, 0.03, dt, horizon, cfg)
        ref = [_walk_passage(d, 0.03, cfg, i, dt, horizon) for i in range(40)]
        assert np.array_equal(times, ref, equal_nan=True)
        # both ends are seen: passages on the grid, and lanes stopped by a reset
        on_grid = np.isclose(times / dt, np.round(times / dt), rtol=0.0, atol=1e-9)
        assert 5 <= on_grid.sum() <= 35


def _numpy_uniforms(seed, lane, sub, block, n):
    """The next 4 n random() of numpy's own generator keyed [seed, lane] at counter [block, sub, 0, 0]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, lane], dtype=np.uint64),
                                                counter=np.array([block, sub, 0, 0], dtype=np.uint64))
                               ).random(4 * n)


def test_philox_uniforms_match_numpy_philox(monkeypatch):
    # the all-lane Philox4x64-10 kernel gives the random() words of numpy's
    # own generator, bit for bit: n blocks after block b at the chain's
    # refill offsets, on sub-streams 0-2, at edge keys and seeds.  With 3
    # blocks a lane, lane 5461 straddles two of the kernel's passes
    lanes = np.array(list(range(6000)) + [2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1],
                     dtype=np.uint64)
    some = np.r_[np.arange(0, 6000, 97), 5461, np.arange(6000, 6005)]
    for seed in (0, 2**63 + 12345, 2**64 - 1):
        for sub in (0, 1, 2):
            for block, n in ((0, 1), (1, 2), (3, 4), (7, 8), (15, 16), (31, 16), (5, 3)):
                u = mc._philox_uniforms(seed, lanes, sub, block, n)
                ref = [_numpy_uniforms(seed, lane, sub, block, n) for lane in lanes[some].tolist()]
                assert np.array_equal(u[some], ref), (seed, sub, block)
            rate = 0.7
            assert np.array_equal(mc._exp_clock(seed, lanes[:50], rate, sub),
                                  -np.log1p(-mc._philox_uniforms(seed, lanes[:50], sub, 0, 1)[:, 0]) / rate)
    u = mc._philox_uniforms(2**64 - 1, lanes, 1, 5, 3)
    assert np.array_equal(u, [_numpy_uniforms(2**64 - 1, lane, 1, 5, 3) for lane in lanes.tolist()])
    assert np.all(mc._exp_clock(7, lanes[:50], 0.0) == np.inf)
    # call sizes at the pass edges: 1 block, one whole pass, one pass and a block
    for lanes, n in ((np.array([2**64 - 1], dtype=np.uint64), 1), (np.arange(mc._PHILOX_PASS), 1),
                     (np.arange(mc._PHILOX_PASS // 16), 16), (np.arange(mc._PHILOX_PASS + 1), 1)):
        given = lanes.copy()
        u = mc._philox_uniforms(7, lanes, 0, 2, n)
        rows = np.unique(np.r_[0, len(lanes) - 2 : len(lanes), np.arange(0, len(lanes), 997)].clip(0))
        assert np.array_equal(u[rows], [_numpy_uniforms(7, lane, 0, 2, n) for lane in lanes[rows].tolist()])
        assert np.array_equal(lanes, given)  # the caller's lanes are not written
        again = mc._philox_uniforms(7, lanes, 0, 2, n)
        assert np.array_equal(again, u) and not np.shares_memory(again, u)
    # with a pass of 40 blocks and 16 blocks a lane, lanes 2, 4, 7, ... straddle two passes
    monkeypatch.setattr(mc, "_PHILOX_PASS", 40)
    lanes = np.arange(9, dtype=np.uint64) + 2**63
    assert np.array_equal(mc._philox_uniforms(3, lanes, 1, 31, 16),
                          [_numpy_uniforms(3, lane, 1, 31, 16) for lane in lanes.tolist()])


def test_one_lane_path_refills_past_the_block_cap():
    # over horizon 40 a lane runs about 480 events, 240 Philox blocks, well
    # past the 16 blocks of one refill: the one-lane path is lane i of a
    # 50-lane run, and numpy's own stream drawn event by event
    cfg = mc.SimConfig(seed=2**64 - 1, n_paths=50, horizon=40.0)
    states, _ = mc._chain_lanes(P, 6, cfg.seed, np.arange(50), cfg.horizon)
    for i in (0, 17, 49):
        path = mc.simulate_chain_path(P, 6, cfg, i)
        assert path.states.size // 2 > 8 * mc._CHAIN_BLOCKS  # two events a block
        assert path.states[-1] == states[i]
        times, ref = _scalar_chain_path(P, 6, cfg.seed, i, cfg.horizon)
        assert np.array_equal(path.states, ref)
        np.testing.assert_allclose(path.times, times, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("absorb", [False, True])
def test_chain_streams_do_not_depend_on_refill_size(monkeypatch, absorb):
    # a lane's k-th uniform is the same whether a refill draws 1 block, a
    # count that grows as lanes stop, or 16, with lanes over several chunks
    monkeypatch.setattr(mc, "_CHAIN_LANES", 64)
    lanes, until = np.arange(150), (50.0 if absorb else 2.0)
    for seed in (0, 7, 2**64 - 1):
        runs = []
        for refill in (1, 300, 2**40):
            monkeypatch.setattr(mc, "_CHAIN_REFILL", refill)
            trace = []
            runs.append((*mc._chain_lanes(P, 3, seed, lanes, until, absorb=absorb, trace=trace), trace))
        (state, hit, trace), others = runs[0], runs[1:]
        assert np.isnan(hit).any() != absorb and len(trace) > 20
        for other_state, other_hit, other_trace in others:
            assert np.array_equal(other_state, state)
            assert np.array_equal(other_hit, hit, equal_nan=True)
            assert len(other_trace) == len(trace)
            assert all(np.array_equal(a, b) for step, other in zip(trace, other_trace)
                       for a, b in zip(step, other))


def test_fpt_fourth_moment_matches_pow_form():
    # the variance's standard error takes the fourth central moment as
    # square(square(x)); against x**4 only that error may move, by an ulp
    def pow_form(times):
        finite = times[~np.isnan(times)]
        mean, var = float(finite.mean()), float(finite.var(ddof=1))
        m4 = float(((finite - mean) ** 4).mean())
        return mean, var, math.sqrt(var / finite.size), math.sqrt(max(m4 - var**2, 0.0) / finite.size)

    for seed in range(20):
        cfg = mc.SimConfig(seed=seed, n_paths=2000)
        for model, start, times in (
                (P, 3, mc._chain_lanes(P, 3, seed, np.arange(2000), mc.default_horizon(P), absorb=True)[1]),
                (D, 0.03, mc._ou_fpt_exact(D, 0.03, mc.default_horizon(D), cfg))):
            est = mc.estimate_fpt(model, start, cfg)
            mean, var, se_mean, se_var = pow_form(times)
            assert (est.mean.value, est.variance.value, est.mean.std_error) == (mean, var, se_mean)
            assert est.variance.std_error == pytest.approx(se_var, rel=1e-15, abs=0.0)


def test_ou_stream_version_3_pinned():
    # sha256 of the stream-version-3 outputs; a kernel change that moves
    # any lane must also change mc.STREAM_VERSION and these digests.  The
    # grid kernel and the endpoints keep their version-2 digests; version 3
    # adds the exact beta = 0 passage times that estimate_fpt summarises
    assert mc.STREAM_VERSION == 3
    cfg = mc.SimConfig(seed=20260810, n_paths=2000)
    fpt = mc._ou_fpt_times(D, 0.03, 4.0 * mc.default_fpt_grid_dt(D), mc.default_horizon(D), cfg)
    assert hashlib.sha256(fpt.tobytes()).hexdigest() == (
        "e0208077837d46b3fcfb1155ac86df9dc929d315f726b9b2acb49fc110a409a0")
    x = mc.sample_ou_endpoints(D, 0.03, 1.0, dataclasses.replace(cfg, n_paths=1000))
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "dd24ecf098fd1d1f4be79fb50cad46923c9bb67334e55ab89692f5ad869c700d")
    exact = mc._ou_fpt_exact(D, 0.03, mc.default_horizon(D), cfg)
    assert hashlib.sha256(exact.tobytes()).hexdigest() == (
        "2c4cd6e0847367aacec1e5b2495c24538aa6945d400fa3e94368fb511f74da73")
    assert mc.estimate_fpt(D, 0.03, cfg).mean.value == float(exact[~np.isnan(exact)].mean())


def test_ou_exact_passage_matches_time_change():
    # the exact beta = 0 sampler on numpy's own streams: R from sub-stream
    # 0, |Z| = -ndtri(u / 2) with u = 1 - random() of sub-stream 1, and the
    # free passage at tau(t) = (nu/2)(e^{2 alpha t} - 1) = y^2 / Z^2
    cfg = mc.SimConfig(seed=2**64 - 1, n_paths=50)
    times = mc._ou_fpt_exact(D, -0.03, 1.0, cfg)
    ref = []
    for lane in range(50):
        v0, v1 = (np.random.Generator(np.random.Philox(
            key=np.array([cfg.seed, lane], dtype=np.uint64),
            counter=np.array([0, sub, 0, 0], dtype=np.uint64))).random() for sub in (0, 1))
        z = stats.norm.isf((1.0 - v1) / 2.0)
        t = min(-math.log1p(-v0) / D.xi, math.log1p(2.0 * 0.03**2 / (D.nu * z * z)) / (2.0 * D.alpha))
        ref.append(t if t <= 1.0 else math.nan)
    np.testing.assert_allclose(times, ref, rtol=1e-13, atol=0.0)
    assert 0 < np.isnan(times).sum() < 50


def test_ou_grid_kernel_within_one_step_of_exact_passage():
    # an independent check of the grid kernel at beta = 0: at a fine step
    # its times are the exact ones moved up by less than one step, so
    # against the exact sampler (on another seed) F_grid(t) <= F_exact(t) +
    # eps and F_grid(t + dt) >= F_exact(t) - eps, with eps the 1% critical
    # value of the two-sample Kolmogorov-Smirnov test; censored times are
    # inf.  At this step and path count, detection by sign changes alone
    # (no bridge) breaks the second bound by 2.5 eps
    dt = 4.0 * mc.default_fpt_grid_dt(D)
    grid = mc._ou_fpt_times(D, 0.03, dt, 25.0, mc.SimConfig(seed=23, n_paths=100000))
    exact = mc._ou_fpt_exact(D, 0.03, 25.0, mc.SimConfig(seed=24, n_paths=100000))
    g, e = (np.sort(np.nan_to_num(x, nan=np.inf)) for x in (grid, exact))
    eps = 1.63 * math.sqrt((g.size + e.size) / (g.size * e.size))
    t = np.concatenate([g, e])
    t = t[np.isfinite(t)]

    def cdf(sample, at):
        return np.searchsorted(sample, at, side="right") / sample.size

    assert np.max(cdf(g, t) - cdf(e, t)) <= eps
    assert np.max(cdf(e, t) - cdf(g, t + dt)) <= eps


@pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
def test_ou_exact_update_no_moment_bias(dt):
    # with xi = 0 the time-t law is exact for any step size
    d = ou.DiffusionParams(alpha=1.2, beta=0.01, nu=0.001, xi=0.0)
    t = 2.0
    cfg = mc.SimConfig(seed=1000 + int(dt * 100), n_paths=20000, fpt_grid_dt=dt)
    mean, m2 = mc.estimate_ou_moments(d, 0.06, t, cfg)
    ref_mean = ou.f_free_mean(d, 0.06, t)
    ref_var = ou.f_free_var(d, t)
    assert abs(mean.value - ref_mean) < 4.0 * mean.std_error
    ref_m2 = ref_var + ref_mean**2
    assert abs(m2.value - ref_m2) < 4.0 * m2.std_error
    # the grid walk, which the endpoint sampler no longer uses
    walk_cfg = mc.SimConfig(seed=2000 + int(dt * 100), n_paths=1, horizon=t, fpt_grid_dt=dt)
    x = np.array([simulate_ou_path(d, 0.06, walk_cfg, i).values[-1] for i in range(2000)])
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - ref_mean) < 4.0 * se
    assert abs((x**2).mean() - ref_m2) < 4.0 * (x**2).std(ddof=1) / math.sqrt(x.size)


def test_ou_moments_match_closed_forms_with_resets():
    cfg = mc.SimConfig(seed=11, n_paths=20000, fpt_grid_dt=0.05)
    t = 1.0
    mean, m2 = mc.estimate_ou_moments(D, 0.06, t, cfg)
    assert abs(mean.value - ou.mean_cat_x(D, 0.06, t)) < 4.0 * mean.std_error
    assert abs(m2.value - ou.m2_cat_x(D, 0.06, t)) < 4.0 * m2.std_error


def test_ou_stationary_law_kolmogorov_smirnov():
    # xi = 0, large t: the sample law is the centered stationary normal
    d = ou.DiffusionParams(alpha=1.2, beta=0.01, nu=0.001, xi=0.0)
    t = 30.0 / d.alpha
    cfg = mc.SimConfig(seed=12, n_paths=10000, fpt_grid_dt=0.5)
    x = mc.sample_ou_endpoints(d, 0.06, t, cfg)
    res = stats.kstest(x, "norm", args=(d.beta, math.sqrt(d.nu / 2.0)))
    assert res.statistic < 1.63 / math.sqrt(cfg.n_paths)  # 1% critical value


def test_chain_fpt_matches_linear_solve():
    cfg = mc.SimConfig(seed=21, n_paths=50000)
    est = mc.estimate_fpt(P, 3, cfg)
    mean_ref, m2_ref = eh.fpt_moments_linear(P, 3)
    assert abs(est.mean.value - mean_ref) < 4.0 * est.mean.std_error
    var_ref = m2_ref - mean_ref**2
    assert abs(est.variance.value - var_ref) < 4.0 * est.variance.std_error
    assert est.n_censored == 0 and not est.flagged


def test_diffusion_fpt_histogram_and_mean():
    cfg = mc.SimConfig(seed=22, n_paths=20000, horizon=25.0)
    est = mc.estimate_fpt(D, 0.03, cfg, half_step_check=True)
    # at beta = 0 the passage times are exact: the mean is within 4 se of
    # the closed form on both sides, and there is no grid step to halve
    ref = ou.mean_fpt_cat(D, 0.03)
    assert abs(est.mean.value - ref) < 4.0 * est.mean.std_error
    assert est.mean_half_step is None
    # histogram bins against the closed-form density
    mids = est.density.grid
    width = mids[1] - mids[0]
    for m, h in zip(mids[::7], est.density.samples[::7]):
        p_bin = ou.fpt_density_cat_sym(D, 0.03, float(m)) * width
        se = math.sqrt(max(p_bin * (1.0 - p_bin), 1e-12) / cfg.n_paths)
        assert abs(h * width - p_bin) < 4.0 * se + 0.1 * p_bin


def test_diffusion_fpt_beta_nonzero_takes_grid_kernel():
    # beta != 0 has no exact sampler: the estimate summarises the grid
    # kernel's times, and the half-step rerun is reported
    d = ou.DiffusionParams(alpha=1.2, beta=0.004, nu=0.001, xi=0.5)
    dt = 4.0 * mc.default_fpt_grid_dt(d)
    cfg = mc.SimConfig(seed=25, n_paths=4000, fpt_grid_dt=dt)
    est = mc.estimate_fpt(d, 0.03, cfg, half_step_check=True)
    horizon = mc.default_horizon(d)
    times = mc._ou_fpt_times(d, 0.03, dt, horizon, cfg)
    assert est.mean.value == float(times[~np.isnan(times)].mean())
    half = mc._ou_fpt_times(d, 0.03, dt / 2.0, horizon, cfg)
    assert est.mean_half_step.value == float(half[~np.isnan(half)].mean())


def test_diffusion_fpt_mean_decreasing_in_xi():
    means = []
    for k, xi in enumerate((0.25, 0.5, 1.0, 1.5)):
        d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=xi)
        cfg = mc.SimConfig(seed=300 + k, n_paths=4000, horizon=60.0)
        means.append(mc.estimate_fpt(d, 0.03, cfg, half_step_check=False).mean.value)
    assert all(a > b for a, b in zip(means, means[1:]))


def test_fpt_censoring_reported_and_flagged():
    cfg = mc.SimConfig(seed=31, n_paths=2000, horizon=0.4)
    est = mc.estimate_fpt(D, 0.03, cfg, half_step_check=False)
    assert est.n_censored > 0
    assert est.censored_fraction == est.n_censored / 2000
    assert est.flagged


def test_estimate_fpt_rejects_zero_start():
    for model, start in ((P, 0), (D, 0.0), (D, -0.0)):
        with pytest.raises(ValueError, match="^start must be finite and nonzero"):
            mc.estimate_fpt(model, start, mc.SimConfig(seed=1, n_paths=10))


def test_estimate_fpt_rejects_other_models():
    # the default horizon was once read from any model, and a str raised AttributeError
    with pytest.raises(TypeError, match="^model must be ChainParams or DiffusionParams"):
        mc.default_horizon("chain")
    for horizon in (None, 2.0):
        with pytest.raises(TypeError, match="^model must be ChainParams or DiffusionParams"):
            mc.estimate_fpt("chain", 3, mc.SimConfig(seed=1, n_paths=10, horizon=horizon))


def test_ou_fpt_censored_past_horizon():
    # the grid kernel's n_steps = ceil(horizon / dt) overshoots: a crossing
    # at grid time 1.2 lies past the horizon 1.0 and is censored, not recorded
    cfg = mc.SimConfig(seed=2, n_paths=4000, horizon=1.0, fpt_grid_dt=0.3)
    times = mc._ou_fpt_times(D, 0.03, 0.3, 1.0, cfg)
    assert np.nanmax(times) <= 1.0
    # at beta = 0 the estimator censors exactly the exact times past 1.0
    est = mc.estimate_fpt(D, 0.03, cfg, half_step_check=False)
    assert est.density.grid[-1] < cfg.horizon
    uncut = mc._ou_fpt_exact(D, 0.03, math.inf, cfg)
    assert est.n_censored == np.sum(uncut > 1.0) > 0


def test_ou_grid_walk_needs_a_last_step():
    # beta != 0 with xi = 0 and an infinite horizon: neither a reset nor the
    # horizon ends the grid walk, which raises up front; a reset clock does
    d = ou.DiffusionParams(alpha=1.2, beta=0.004, nu=0.001, xi=0.0)
    cfg = mc.SimConfig(seed=1, n_paths=4, horizon=math.inf)
    with pytest.raises(ValueError, match="grid walk"):
        mc.estimate_fpt(d, 0.03, cfg)
    est = mc.estimate_fpt(dataclasses.replace(d, xi=0.5), 0.03, dataclasses.replace(cfg, n_paths=50),
                          half_step_check=False)
    assert est.n_censored == 0 and math.isfinite(est.mean.value)


def test_estimate_fpt_needs_two_uncensored_paths(monkeypatch):
    # all-censored runs name the censored count: the chain, and the OU
    # process by its exact times (beta = 0) and by its grid walk
    d0 = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.0)
    d_grid = ou.DiffusionParams(alpha=1.2, beta=0.004, nu=0.001, xi=0.5)
    for model, start in ((P, 3), (d0, 0.03), (d_grid, 0.03)):
        for horizon in (1e-3, 1e-6):
            cfg = mc.SimConfig(seed=1, n_paths=50, horizon=horizon)
            with pytest.raises(ValueError, match="^50 of 50 paths are censored .* at least 2 uncensored paths$"):
                mc.estimate_fpt(model, start, cfg, half_step_check=False)
    # one path is refused for its count, before any path is simulated
    for kernel in ("_chain_lanes", "_ou_fpt_exact", "_ou_fpt_times"):
        monkeypatch.setattr(mc, kernel, None)
    for model, start in ((P, 6), (D, 0.03), (d_grid, 0.03)):
        with pytest.raises(ValueError, match="^passage moments need at least 2 paths, got 1$"):
            mc.estimate_fpt(model, start, mc.SimConfig(seed=1, n_paths=1, horizon=1e3))
    with pytest.raises(ValueError, match="at least 2 paths"):
        mc.estimate_ou_moments(D, 0.06, 1.0, mc.SimConfig(seed=1, n_paths=1))


def test_path_simulators_refuse_an_infinite_horizon():
    # no event ends a path over [0, inf): the chain simulators would loop
    # without end, and the OU grid has no step count
    cfg = mc.SimConfig(seed=1, n_paths=1, horizon=math.inf)
    for simulate, model, start in ((mc.simulate_chain_path, P, 6), (simulate_chain_path_clock, P, 6),
                                   (simulate_ou_path, D, 0.03)):
        with pytest.raises(ValueError, match="^horizon must be finite, got inf$"):
            simulate(model, start, cfg, 0)


def test_chain_path_state_at_rejects_time_before_start():
    path = mc.simulate_chain_path(P, 6, mc.SimConfig(seed=42, n_paths=1, horizon=20.0), 7)
    assert path.state_at(0.0) == 6
    with pytest.raises(ValueError):
        path.state_at(-1.0)


def test_estimate_chain_law_rejects_negative_time():
    with pytest.raises(ValueError):
        mc.estimate_chain_law(P, 6, -1.0, mc.SimConfig(seed=1, n_paths=10))


def test_sample_ou_endpoints_rejects_nonfinite_start():
    for y in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mc.sample_ou_endpoints(D, y, 1.0, mc.SimConfig(seed=1, n_paths=10))
