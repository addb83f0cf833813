"""Per-layer metrics of a traced run, computed from its spans.

Layers are volkit's modules.  Every metric is emitted on every workload; a
layer the workload does not call reads 0 there.  Times are means per call
(or, for ``<layer>.self_s``, per operation), so they add up: the self times
of all layers sum to the mean operation time.
"""

from __future__ import annotations

LAYERS = ("sweeps", "probing", "extraction", "kernels", "synthesis",
          "storage", "bench")
SYSTEMS = ("cascade", "amplifier")
ORDERS = (1, 2, 3)


def _select(tracer, name, **match):
    return [s for s in tracer.spans if s["name"] == name
            and all(s["counts"].get(k) == v for k, v in match.items())]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _mean_time(spans) -> float:
    return _mean(s["end"] - s["start"] for s in spans)


def _mean_count(spans, key) -> float:
    return _mean(s["counts"][key] for s in spans)


def _max_count(spans, key) -> float:
    return max((s["counts"][key] for s in spans), default=0.0)


def per_layer(tracer, n_ops: int, quality: dict, span_cost_s: float) -> dict:
    """Map metric name -> (value, unit) for every per-layer metric."""
    out: dict[str, tuple[float, str]] = {}
    self_times = tracer.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_times.get(layer, 0.0) / n_ops, "s")

    for system in SYSTEMS:
        sims = _select(tracer, "probing.simulate_dataset", system=system)
        secs = _mean_time(sims)
        points = _mean_count(sims, "operating_points")
        steps = _mean_count(sims, "rk4_steps")
        work = points * steps
        out[f"probing.simulate_s.{system}"] = (secs, "s")
        out[f"probing.operating_points.{system}"] = (points, "count")
        out[f"probing.rk4_steps.{system}"] = (steps, "count")
        out[f"probing.ns_per_point_step.{system}"] = (
            1e9 * secs / work if work else 0.0, "ns")

    out["sweeps.plan_s"] = (
        _mean_time(_select(tracer, "sweeps.standard_sweep_plan")), "s")

    ext = _select(tracer, "extraction.extract")
    out["extraction.extract_s"] = (_mean_time(ext), "s")
    out["extraction.ls_systems"] = (_mean_count(ext, "ls_systems"), "count")
    out["extraction.rhs_columns"] = (_mean_count(ext, "rhs_columns"), "count")
    out["extraction.success_fraction"] = (
        _mean_count(ext, "success_fraction"), "fraction")
    for n in ORDERS:
        out[f"extraction.kernel_points.o{n}"] = (
            _mean_count(ext, f"kernel_points.o{n}"), "count")
    out["extraction.max_rel_residual"] = (
        _max_count(ext, "max_rel_residual"), "ratio")
    out["extraction.kernel_max_rel_err"] = (
        quality.get("extraction.kernel_max_rel_err", 0.0), "ratio")

    for n in ORDERS:
        out[f"kernels.freeze_s.o{n}"] = (
            _mean_time(_select(tracer, "kernels.freeze", order=n)), "s")
    for n in ORDERS[1:]:
        out[f"kernels.fill_fraction.o{n}"] = (_mean_count(
            _select(tracer, "kernels.freeze", order=n), "fill_fraction"),
            "fraction")

    out["synthesis.spectrum_s"] = (
        _mean_time(_select(tracer, "synthesis.spectrum_of")), "s")
    for n in ORDERS:
        spans = _select(tracer, "synthesis.synthesize_order", order=n)
        out[f"synthesis.order_s.o{n}"] = (_mean_time(spans), "s")
        out[f"synthesis.tuples.o{n}"] = (_mean_count(spans, "tuples"), "count")
    order3 = _select(tracer, "synthesis.synthesize_order", order=3)
    tuples3 = sum(s["counts"]["tuples"] for s in order3)
    out["synthesis.ns_per_tuple.o3"] = (
        1e9 * sum(s["end"] - s["start"] for s in order3) / tuples3
        if tuples3 else 0.0, "ns")
    first = _select(tracer, "synthesis.synthesize_order", order=1)
    out["synthesis.bins_used"] = (_mean_count(first, "bins_used"), "count")
    out["synthesis.dropped_tuple_fraction"] = (_max_count(
        _select(tracer, "synthesis.synthesize_order"),
        "dropped_tuple_fraction"), "fraction")
    out["synthesis.max_nrmse"] = (
        quality.get("synthesis.max_nrmse", 0.0), "ratio")

    for kind in ("dataset", "archive"):
        saves = _select(tracer, f"storage.save_{kind}")
        loads = _select(tracer, f"storage.load_{kind}")
        out[f"storage.save_{kind}_s"] = (_mean_time(saves), "s")
        out[f"storage.load_{kind}_s"] = (_mean_time(loads), "s")
        out[f"storage.{kind}_bytes"] = (
            _mean_count(saves + loads, "bytes"), "bytes")

    in_ops = [s for s in tracer.spans if s["op"] is not None]
    spans_per_op = len(in_ops) / n_ops
    op_time = _mean_time(s for s in in_ops if s["parent"] is None)
    out["trace.spans_per_op"] = (spans_per_op, "count")
    out["trace.span_cost_us"] = (1e6 * span_cost_s, "us")
    out["trace.overhead_frac"] = (
        spans_per_op * span_cost_s / op_time if op_time else 0.0, "fraction")
    return out
