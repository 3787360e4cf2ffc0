"""One traced `flowscore run`, with spans recorded from outside the package.

    PYTHONPATH=src python3 perfbench/tracer.py CONFIG OUT_DIR SPANS_JSON

The package is not edited: each layer's public function is replaced by
a wrapper at the name its callers look up. `cli` imports `load_network`,
`load_trips` and `run_day` by name, so those are wrapped in the `cli`
namespace; `run_day` reaches `assign_interval` and `advance_trips`
through the `qdta` module; `RoutingGraph.shortest_paths` is a class
attribute. A span is (name, start, end, parent index, counts), kept in
memory and written to SPANS_JSON when the run ends. Counts are read from
the call's arguments and return value. A name that no longer exists is
reported as a missing layer instead of failing the run.

Span times are CPU time of the traced process (time.process_time), like
the benchmark's gated `run_cpu_s`. `summarize` turns the spans into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

COST_FUNCTIONS = ("costs.bpr_time", "costs.marginal_time_cost", "costs.eco_assignment_cost")
WRITERS = (
    "typology.write_link_types",
    "cli.write_flows_csv",
    "cli.write_trips_csv",
    "cli.write_convergence_csv",
    "cli.write_indicators_csv",
    "cli.write_exposure_csv",
    "charts.write_comparison",
    "charts.emit_chart",
)


def _sources(arguments, result):
    return {"sources": int(result[0].shape[0])}


def _fw(arguments, result):
    return {"iterations": int(result.iterations),
            "unreachable": float(sum(q for _o, _d, q in result.unreachable))}


def _walk(arguments, result):
    return {"walked": len(arguments["active_trips"]), "spilled": len(result[1])}


def _day(arguments, result):
    return {"forced": sum(1 for r in result.records if r.status == "forced")}


# (module, attribute looked up by the caller, span name, counter or None)
LAYERS = (
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("cli", "load_network", "network.load_network", None),
    ("cli", "load_trips", "qdta.load_trips", None),
    ("typology", "load_parcels", "typology.load_parcels", None),
    ("indicators", "load_schools", "indicators.load_schools", None),
    ("geo", "load_tracts", "geo.load_tracts", None),
    ("geo", "validate_tracts", "geo.validate_tracts", None),
    ("typology", "classify_network", "typology.classify_network", None),
    ("geo", "build_link_index", "geo.build_link_index", None),
    ("indicators", "link_tract_ids", "indicators.link_tract_ids", None),
    ("cli", "run_day", "qdta.run_day", _day),
    ("qdta", "assign_interval", "qdta.assign_interval", _fw),
    ("qdta", "advance_trips", "qdta.advance_trips", _walk),
    ("qdta", "RoutingGraph.shortest_paths", "qdta.shortest_paths", _sources),
    ("costs", "bpr_time", "costs.bpr_time", None),
    ("costs", "marginal_time_cost", "costs.marginal_time_cost", None),
    ("costs", "eco_assignment_cost", "costs.eco_assignment_cost", None),
    ("indicators", "daily_stats", "indicators.daily_stats", None),
    ("indicators", "school_exposure", "indicators.school_exposure", None),
    ("indicators", "build_report", "indicators.build_report", None),
    ("typology", "write_link_types", "typology.write_link_types", None),
    ("cli", "write_flows_csv", "cli.write_flows_csv", None),
    ("cli", "write_trips_csv", "cli.write_trips_csv", None),
    ("cli", "write_convergence_csv", "cli.write_convergence_csv", None),
    ("cli", "write_indicators_csv", "cli.write_indicators_csv", None),
    ("cli", "write_exposure_csv", "cli.write_exposure_csv", None),
    ("charts", "write_comparison", "charts.write_comparison", None),
    ("charts", "emit_chart", "charts.emit_chart", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, counts or None]
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            owner = _resolve(f"flowscore.{module_name}", attr.split(".")[:-1])
            leaf = attr.split(".")[-1]
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            setattr(owner, leaf, self._wrap(fn, name, counter))

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                stack.pop()
            if count is not None:
                span[4] = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _resolve(module_name, path):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path:
        obj = getattr(obj, part, None)
    return obj


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    def total(name, parents=None):
        return sum(dur(i) for i in by_name.get(name, ())
                   if parents is None or parent_name(i) in parents)

    def calls(name, parents=None):
        return sum(1 for i in by_name.get(name, ())
                   if parents is None or parent_name(i) in parents)

    def counted(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in by_name.get(name, ()))

    sp, fw, walk, day = ("qdta.shortest_paths", "qdta.assign_interval",
                         "qdta.advance_trips", "qdta.run_day")
    metrics = {
        "qdta.shortest_paths_s": total(sp),
        "qdta.shortest_paths_calls": calls(sp),
        "qdta.shortest_paths_sources": counted(sp, "sources"),
        # the trip walk and the end-of-day forced completion inside run_day
        "qdta.shortest_paths_calls_in_walk": calls(sp, {walk, day}),
        "qdta.assign_interval_s": total(fw),
        "qdta.assign_interval_calls": calls(fw),
        "qdta.fw_self_s": total(fw) - total(sp, {fw}),
        "qdta.fw_iterations": counted(fw, "iterations"),
        "costs.evals_in_fw": sum(calls(c, {fw}) for c in COST_FUNCTIONS),
        "costs.fw_eval_s": sum(total(c, {fw}) for c in COST_FUNCTIONS),
        "qdta.advance_trips_s": total(walk),
        "qdta.walk_self_s": total(walk) - total(sp, {walk}),
        "qdta.trips_walked": counted(walk, "walked"),
        "qdta.trips_spilled": counted(walk, "spilled"),
        "qdta.forced_trips": counted(day, "forced"),
        "qdta.run_day_s": total(day),
        "qdta.run_day_self_s": total(day) - total(fw, {day}) - total(walk, {day}),
        "qdta.unreachable_demand": counted(fw, "unreachable"),
        "indicators.daily_stats_calls": calls("indicators.daily_stats"),
        "indicators.school_exposure_calls": calls("indicators.school_exposure"),
        "cli.write_outputs_s": sum(total(w) for w in WRITERS),
        "trace.top_level_s": sum(dur(i) for i, s in enumerate(spans) if s[3] < 0),
    }
    for name in ("typology.classify_network", "indicators.link_tract_ids",
                 "geo.build_link_index", "geo.validate_tracts", "network.load_network",
                 "qdta.load_trips", "typology.load_parcels", "geo.load_tracts",
                 "indicators.load_schools", "indicators.build_report",
                 "indicators.school_exposure", "cli.write_flows_csv", "cli.write_trips_csv"):
        metrics[f"{name}_s"] = total(name)
    return metrics


def main(argv) -> int:
    config, out_dir, spans_path = argv
    tracer = Tracer()
    tracer.install()
    from flowscore import cli

    try:
        rc = cli.main(["run", "--config", config, "--out", out_dir])
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"missing": tracer.missing, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
