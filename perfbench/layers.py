"""Per-layer metrics of the traced run.

``install`` wraps the public entry points of each layer (module attributes,
so nothing under ``src/`` changes); ``per_layer`` turns the spans and counts
into the named metrics.  ``seesaw_section`` times the L1/L2 functions
directly, with tracing off, on cold starts of the workload's own cases.
"""
from __future__ import annotations

import importlib
import math
import time

import numpy as np

from bellscope import catalog, cli, inequality, quantum, threshold
from bellscope.threshold import SIGNIFICANCE

# The package re-exports the function ``seesaw`` under the module's name.
seesaw = importlib.import_module("bellscope.seesaw")

# Exact-side functions timed per call: (span name, metric name, scale, unit).
EXACT_CALLS = (
    ("inequality.canonical_form", "inequality.canonical_form.us", 1e6, "us"),
    ("inequality.are_equivalent", "inequality.are_equivalent.us", 1e6, "us"),
    ("inequality.includes", "inequality.includes.us", 1e6, "us"),
    ("inequality.classical_max", "inequality.classical_max.us", 1e6, "us"),
    ("inequality.xor_game_form", "inequality.xor_game_form.us", 1e6, "us"),
    ("inequality.inclusion_digraph", "inequality.inclusion_digraph.s", 1.0, "s"),
    ("catalog.verify_appendix", "catalog.verify_appendix.us", 1e6, "us"),
)


def _observe_eigh(tr, span, args, kwargs, result):
    tr.count("eigh.matrices", math.prod(np.shape(args[0])[:-2]))


def _observe_probe(tr, span, args, kwargs, res):
    above = res.best_violation > SIGNIFICANCE
    tr.count("probe.above_s" if above else "probe.below_s", tr.end[span] - tr.start[span])
    warm = kwargs.get("warm_start", args[3] if len(args) > 3 else None)
    tr.count("probe.warm", warm is not None)
    if above:
        tr.count("probe.hit_restarts", res.restart_index + 1)
    parent = tr.parent[span]
    if parent >= 0 and tr.names[tr.name_id[parent]] == "threshold.alpha_max":
        tr.count("threshold.probes")
        tr.count("threshold.probes_below", not above)


def install(tr) -> None:
    """Wrap every traced entry point.  Several module attributes can name
    one function (``cli.alpha_max`` is ``threshold.alpha_max``); each is
    wrapped where its caller looks it up."""
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(cli, "alpha_max", "threshold.alpha_max")
    tr.wrap(cli, "load_catalog", "catalog.load_catalog")
    tr.wrap(catalog, "load_catalog", "catalog.load_catalog")
    tr.wrap(threshold, "multi_restart_max", "seesaw.multi_restart_max", _observe_probe)
    tr.wrap(np.random, "SeedSequence", "numpy.random.SeedSequence")
    tr.wrap(np.linalg, "eigh", "numpy.linalg.eigh", _observe_eigh)
    tr.wrap(np.linalg, "eigvalsh", "numpy.linalg.eigvalsh")
    tr.wrap(np.linalg, "qr", "numpy.linalg.qr")
    for span, *_ in EXACT_CALLS:
        module, attr = span.split(".")
        tr.wrap(catalog if module == "catalog" else inequality, attr, span)


def per_layer(tr, untraced_wall: float, traced_wall: float, op_seconds: float,
              section: dict, alpha_err_max: float, repeat_frac: float) -> dict:
    """Named per-layer metrics as {name: (value, unit)}.

    ``untraced_wall`` and ``traced_wall`` are the round times of the two
    phases (``run.Phase.round_s``); ``op_seconds`` is the total time of the
    traced operations.  The
    wrapped layers' self times, summed, are reported as a share of it: time
    an operation spends outside every wrapped call lowers the share.  The
    exact-side per-call times count only calls made by the operation itself,
    not those one query makes to another (``inclusion_digraph`` calls
    ``includes``).
    """
    s = tr.summary()
    top = tr.summary(top_level=True)
    c = tr.counters

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    restarts = get("numpy.random.SeedSequence", "calls") + c.get("probe.warm", 0)
    m = {
        "numpy.linalg.eigh.calls": (get("numpy.linalg.eigh", "calls"), "count"),
        "numpy.linalg.eigh.matrices": (c.get("eigh.matrices", 0), "count"),
        "numpy.linalg.eigh.self_s": (get("numpy.linalg.eigh", "self_s"), "s"),
        "numpy.linalg.eigvalsh.calls": (get("numpy.linalg.eigvalsh", "calls"), "count"),
        "numpy.linalg.eigvalsh.self_s": (get("numpy.linalg.eigvalsh", "self_s"), "s"),
        "numpy.linalg.qr.calls": (get("numpy.linalg.qr", "calls"), "count"),
        **{k: (v, u) for k, (v, u) in section.items()},
        "seesaw.multi_restart_max.calls": (get("seesaw.multi_restart_max", "calls"), "count"),
        "seesaw.multi_restart_max.self_s": (get("seesaw.multi_restart_max", "self_s"), "s"),
        "seesaw.multi_restart_max.above_s": (c.get("probe.above_s", 0.0), "s"),
        "seesaw.multi_restart_max.below_s": (c.get("probe.below_s", 0.0), "s"),
        "seesaw.restarts": (restarts, "count"),
        "seesaw.restart_yield": (c.get("probe.hit_restarts", 0) / restarts if restarts else 0.0, "frac"),
        "threshold.alpha_max.self_s": (get("threshold.alpha_max", "self_s"), "s"),
        "threshold.probes": (c.get("threshold.probes", 0), "count"),
        "threshold.probes_below": (c.get("threshold.probes_below", 0), "count"),
        "threshold.alpha_err_max": (alpha_err_max, "1"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "catalog.load_catalog.calls": (get("catalog.load_catalog", "calls"), "count"),
        "catalog.load_catalog.self_s": (get("catalog.load_catalog", "self_s"), "s"),
        "inequality.canonical_form.repeat_frac": (repeat_frac, "frac"),
    }
    for span, name, scale, unit in EXACT_CALLS:
        calls, total = top[span]["calls"], top[span]["total_s"]
        m[name] = (total / calls * scale if calls else 0.0, unit)
    self_sum = sum(v["self_s"] for n, v in s.items() if n != "bench.op")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.self_sum_frac"] = (self_sum / op_seconds if op_seconds else 0.0, "frac")
    m["trace_overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")
    return m


def _cold(party: str, m: int, d: int, rng) -> quantum.MeasurementSet:
    return quantum.MeasurementSet(party, tuple(
        quantum.random_projective_measurement(d, int(rng.integers(1, d)), rng) for _ in range(m)))


def seesaw_section(cases, seed: int, starts: int = 96):
    """Time ``seesaw.seesaw`` (L2) and ``seesaw.optimize_party`` (L1) on
    cold starts drawn from the workload seed, about ``starts`` in all.

    Returns (metrics, rows): aggregate metrics as {name: (value, unit)} and
    one row per case.  A workload without see-saw cases reports zeros.
    """
    per_case = max(2, math.ceil(starts / len(cases))) if cases else 0
    cfg = seesaw.SeesawConfig()
    rows = []
    tot_s = tot_iters = runs = converged = opt_s = 0.0
    for ci, case in enumerate(cases):
        rng = np.random.default_rng([seed, ci, 1])
        rho = quantum.isotropic_state(case.d, case.alpha)
        c_s = c_iters = c_conv = c_opt = 0.0
        for _ in range(per_case):
            a = _cold("A", case.ineq.m_a, case.d, rng)
            b = _cold("B", case.ineq.m_b, case.d, rng)
            t0 = time.perf_counter()
            res = seesaw.seesaw(case.ineq, rho, a, b, cfg)
            t1 = time.perf_counter()
            seesaw.optimize_party(case.ineq, rho, b, "A")
            t2 = time.perf_counter()
            c_s += t1 - t0
            c_opt += t2 - t1
            c_iters += res.iters_used
            c_conv += res.converged
        rows.append({"case": case.label, "starts": per_case,
                     "us_per_iter": c_s / c_iters * 1e6, "iters_mean": c_iters / per_case,
                     "converged_frac": c_conv / per_case, "optimize_party_us": c_opt / per_case * 1e6})
        tot_s += c_s
        tot_iters += c_iters
        runs += per_case
        converged += c_conv
        opt_s += c_opt
    metrics = {
        "seesaw.seesaw.us_per_iter": (tot_s / tot_iters * 1e6 if tot_iters else 0.0, "us"),
        "seesaw.seesaw.iters_mean": (tot_iters / runs if runs else 0.0, "count"),
        "seesaw.seesaw.converged_frac": (converged / runs if runs else 0.0, "frac"),
        "seesaw.optimize_party.us": (opt_s / runs * 1e6 if runs else 0.0, "us"),
    }
    return metrics, rows
