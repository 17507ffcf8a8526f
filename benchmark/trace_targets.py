"""Where the tracer stands in for the library, and the per-layer metrics it gives.

Layers, by module: ``cli``; ``ehrenfest`` and ``oujump`` (closed forms);
``specfun`` (special functions, as bound in ``ehrenfest`` and
``oujump``); ``mc`` (Monte Carlo); and ``scipy`` (``quad``, with its
integrand evaluations counted, and ``quad_vec`` and ``solve_ivp``, as
bound in the library's modules).  The benchmark's
own spans around each operation are named ``op.<operation>``.
"""

from __future__ import annotations

import statistics

import numpy as np

from ehrenfestcat import cli, mc
from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import oujump as ou
from ehrenfestcat import specfun as sf

LAYERS = ("cli", "ehrenfest", "oujump", "specfun", "mc", "scipy")


def _nonfinite(row):
    return None if np.all(np.isfinite(row.values)) else "ehrenfest.p_cat_closed_row.nonfinite_rows"


def _dp_branch(args):
    return "specfun.dp_real.integral_branch_calls" if args[1] > sf.DP_Z_SWITCH else None


def register(tracer):
    """Register every stand-in with the tracer (installed per traced round)."""
    for attr in ("main", "write_csv"):
        tracer.patch(cli, attr, tracer.wrap(f"cli.{attr}", getattr(cli, attr)))
    for mod, layer in ((eh, "ehrenfest"), (ou, "oujump"), (mc, "mc")):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if callable(fn) and not isinstance(fn, type):
                on_result = _nonfinite if fn is eh.p_cat_closed_row else None
                raised = "oujump.talbot_invert.raised" if fn is ou.talbot_invert else None
                tracer.patch(mod, attr, tracer.wrap(f"{layer}.{attr}", fn, on_result=on_result,
                                                    raised=raised))
    tracer.patch(eh, "appell_f1_terminating",
                 tracer.wrap("specfun.appell_f1", eh.appell_f1_terminating))
    tracer.patch(ou, "parabolic_cylinder_D",
                 tracer.wrap("specfun.dp_real", ou.parabolic_cylinder_D, on_call=_dp_branch))
    tracer.patch(ou, "parabolic_cylinder_D_complex_log",
                 tracer.wrap("specfun.dp_complex", ou.parabolic_cylinder_D_complex_log))
    tracer.patch(ou, "psi_a1_stream", tracer.counted_stream("specfun.psi_a1.terms", ou.psi_a1_stream))
    for mod, layer in ((eh, "ehrenfest"), (ou, "oujump"), (sf, "specfun")):
        tracer.patch(mod, "quad", tracer.counted_integrand(
            f"{layer}.quad.integrand_evals", f"scipy.quad.{layer}", mod.quad))
    for attr in ("quad_vec", "solve_ivp"):
        tracer.patch(eh, attr, tracer.wrap(f"scipy.{attr}.ehrenfest", getattr(eh, attr)))


# (metric, unit) in the order they are reported; BENCHMARK.json lists the same
METRICS = (
    ("cli.fig3.s", "s"),
    ("cli.fig5.s", "s"),
    ("cli.fig9.s", "s"),
    ("cli.write_csv.s", "s"),
    ("ehrenfest.p_cat_closed_row.ms_per_call", "ms"),
    ("ehrenfest.p_cat_closed_row.nonfinite_rows", "count"),
    ("ehrenfest.outer_index_cache.hits", "count"),
    ("ehrenfest.outer_index_cache.misses", "count"),
    ("ehrenfest.q_cat_row.N20.ms_per_call", "ms"),
    ("ehrenfest.q_cat_row.N40.ms_per_call", "ms"),
    ("ehrenfest.q_cat_row.N80.ms_per_call", "ms"),
    ("ehrenfest.fpt_density_cat_curve.ms_per_call", "ms"),
    ("ehrenfest.quad.integrand_evals", "count"),
    ("specfun.appell_f1.calls", "count"),
    ("specfun.appell_f1.us_per_call", "us"),
    ("specfun.dp_complex.calls", "count"),
    ("specfun.dp_complex.us_per_call", "us"),
    ("specfun.dp_real.calls", "count"),
    ("specfun.dp_real.integral_branch_calls", "count"),
    ("specfun.quad.integrand_evals", "count"),
    ("specfun.psi_a1.terms", "count"),
    ("oujump.talbot_invert.us_per_call", "us"),
    ("oujump.talbot_invert.raised", "count"),
    ("oujump.W_cat.us_per_call", "us"),
    ("oujump.f_cat.us_per_call", "us"),
    ("oujump.f_cat_sym.us_per_call", "us"),
    ("oujump.mean_fpt_cat.us_per_call", "us"),
    ("oujump.m2_fpt_cat.us_per_call", "us"),
    ("oujump.quad.integrand_evals", "count"),
    ("mc.path_rng.calls", "count"),
    ("mc.path_rng.us_per_call", "us"),
    ("mc.estimate_chain_law.us_per_path", "us"),
    ("mc.estimate_fpt.chain.us_per_path", "us"),
    ("mc.sample_ou_endpoints.us_per_path", "us"),
    ("mc.estimate_fpt.ou.us_per_path", "us"),
    ("mc.chain.paths_per_s", "paths/s"),
    ("mc.ou.paths_per_s", "paths/s"),
    ("mc.ou_fpt.bias_z", "se"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.overhead_s", "s"),
)

# Monte Carlo per-path metrics: metric -> the op whose span times it
_PER_PATH = {
    "mc.estimate_chain_law.us_per_path": "chain_law",
    "mc.estimate_fpt.chain.us_per_path": "chain_fpt",
    "mc.sample_ou_endpoints.us_per_path": "ou_endpoints",
    "mc.estimate_fpt.ou.us_per_path": "ou_fpt",
}


def metrics(wl, tracer, rounds, per_round):
    """Per-layer metrics of a traced run, per traced round unless named per call.

    A metric of a layer the workload does not reach reads 0.
    """
    stats, counters = tracer.stats, tracer.counters
    n_traced = sum(1 for traced, _, _ in rounds if traced)

    def calls(name):
        return stats[name][0] / n_traced if name in stats else 0.0

    def per_call(name, scale):
        st = stats.get(name)
        return st[1] / st[0] * scale if st else 0.0

    def ops_total(prefix):
        return sum(v[1] for k, v in stats.items() if k.startswith("op." + prefix)) / n_traced

    def ops_per_call(prefix, scale):
        hit = [v for k, v in stats.items() if k.startswith("op." + prefix)]
        n = sum(v[0] for v in hit)
        return sum(v[1] for v in hit) / n * scale if n else 0.0

    def count(name):
        return counters[name] / n_traced

    def paths_per_s(names):
        """Median over the untraced rounds of paths per second in the named ops."""
        idx = [i for i, op in enumerate(wl.ops) if op.name in names]
        if not idx:
            return 0.0
        paths = sum(wl.paths[wl.ops[i].name] for i in idx)
        return statistics.median(paths / sum(secs[i] for i in idx)
                                 for traced, _, secs in rounds if not traced)

    m = {
        "cli.fig3.s": ops_total("figure.3"),
        "cli.fig5.s": ops_total("figure.5"),
        "cli.fig9.s": ops_total("figure.9"),
        "cli.write_csv.s": stats["cli.write_csv"][1] / n_traced if "cli.write_csv" in stats else 0.0,
        "ehrenfest.p_cat_closed_row.ms_per_call": per_call("ehrenfest.p_cat_closed_row", 1e3),
        "ehrenfest.p_cat_closed_row.nonfinite_rows": count("ehrenfest.p_cat_closed_row.nonfinite_rows"),
        "ehrenfest.outer_index_cache.hits": statistics.mean(r["outer_index_hits"] for r in per_round),
        "ehrenfest.outer_index_cache.misses": statistics.mean(r["outer_index_misses"] for r in per_round),
        "ehrenfest.fpt_density_cat_curve.ms_per_call": per_call("ehrenfest.fpt_density_cat_curve", 1e3),
        "ehrenfest.quad.integrand_evals": count("ehrenfest.quad.integrand_evals"),
        "specfun.appell_f1.calls": calls("specfun.appell_f1"),
        "specfun.appell_f1.us_per_call": per_call("specfun.appell_f1", 1e6),
        "specfun.dp_complex.calls": calls("specfun.dp_complex"),
        "specfun.dp_complex.us_per_call": per_call("specfun.dp_complex", 1e6),
        "specfun.dp_real.calls": calls("specfun.dp_real"),
        "specfun.dp_real.integral_branch_calls": count("specfun.dp_real.integral_branch_calls"),
        "specfun.quad.integrand_evals": count("specfun.quad.integrand_evals"),
        "specfun.psi_a1.terms": count("specfun.psi_a1.terms"),
        "oujump.talbot_invert.us_per_call": per_call("oujump.talbot_invert", 1e6),
        "oujump.talbot_invert.raised": count("oujump.talbot_invert.raised"),
        "oujump.quad.integrand_evals": count("oujump.quad.integrand_evals"),
        "mc.path_rng.calls": calls("mc.path_rng"),
        "mc.path_rng.us_per_call": per_call("mc.path_rng", 1e6),
        "mc.chain.paths_per_s": paths_per_s({"chain_law", "chain_fpt"}),
        "mc.ou.paths_per_s": paths_per_s({"ou_endpoints", "ou_fpt"}),
        "mc.ou_fpt.bias_z": wl.notes.get("ou_fpt_bias_z", 0.0),
    }
    for N in (20, 40, 80):
        m[f"ehrenfest.q_cat_row.N{N}.ms_per_call"] = ops_per_call(f"q_cat_row.N{N}.", 1e3)
    for fn in ("W_cat", "f_cat", "f_cat_sym", "mean_fpt_cat", "m2_fpt_cat"):
        m[f"oujump.{fn}.us_per_call"] = per_call(f"oujump.{fn}", 1e6)
    for metric, op in _PER_PATH.items():
        m[metric] = ops_per_call(op, 1e6) / wl.paths[op] if op in wl.paths else 0.0
    self_s = tracer.self_time_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n_traced
    m["trace.overhead_s"] = (statistics.median(s for traced, s, _ in rounds if traced)
                             - statistics.median(s for traced, s, _ in rounds if not traced))
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in METRICS}
