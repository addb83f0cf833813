"""Command-line pipeline: enumerate, plan, probe, extract, synthesize, validate.

Every command takes its options from an optional --config JSON file,
overridden by explicit flags; the effective semantic config is hashed into
every output file so a run is reproducible from the artifacts alone.

Exit codes: 0 success, 2 validation thresholds failed, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from volkit.extraction import ExtractionError, ExtractionSettings, extract
from volkit.kernels import KernelArchive
from volkit.mixing import (
    enumerate_kernels_for_order,
    enumerate_output_indices,
    term_multiplicity,
)
from volkit.probing import (
    PlanInvalidError,
    ProbeSettings,
    TransientBlowupError,
    simulate_dataset,
    transient,
)
from volkit.storage import (
    FormatError,
    config_hash,
    load_archive,
    load_dataset,
    load_plan,
    save_archive,
    save_dataset,
    save_plan,
    save_report,
    save_waveform_csv,
    write_json,
)
from volkit.sweeps import standard_sweep_plan, validate_plan
from volkit.synthesis import (
    SynthesisSettings,
    TrapezoidPulse,
    nrmse,
    spectrum_of,
    synthesize_order,
    synthesize_total,
)
from volkit.systems import (
    MultiplierCascade,
    SaturatingAmplifier,
    kernel_oracle,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INPUT = 3


class CliError(Exception):
    pass


def make_system(name: str, params: dict | None = None):
    params = params or {}
    if name == "benchmark":
        return MultiplierCascade()
    if name == "benchmark-linear":
        return MultiplierCascade(include_orders=(1,))
    if name == "amplifier":
        return SaturatingAmplifier(
            vsat=float(params.get("vsat", 0.07)),
            gain=float(params.get("gain", 0.25)),
        )
    raise CliError(f"unknown system {name!r}; expected benchmark, "
                   "benchmark-linear, or amplifier")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read config {path}: {err}")


def _merge(config: dict, args: argparse.Namespace, keys: list[str]) -> dict:
    out = dict(config)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# enumerate


def _tone_label(t: int) -> str:
    return f"w{abs(t)}" if t > 0 else f"-w{abs(t)}"


def _freq_label(k) -> str:
    parts = []
    for m, v in enumerate(k, start=1):
        if v == 0:
            continue
        sign = "+" if v > 0 and parts else ("-" if v < 0 else "")
        mag = abs(v)
        parts.append(f"{sign}{mag if mag > 1 else ''}w{m}")
    return "".join(parts) or "0"


def enumeration_tables(m_tones: int, max_order: int,
                       include_dc: bool = False) -> dict:
    freqs = enumerate_output_indices(m_tones, max_order, include_dc=include_dc)
    orders = {}
    kernels_per_order = {}
    for n in range(1, max_order + 1):
        table = enumerate_kernels_for_order(m_tones, max_order, n,
                                            include_dc=include_dc)
        rows = []
        count = 0
        for k, terms in table.items():
            rows.append({
                "k": list(k),
                "frequency": _freq_label(k),
                "kernels": [
                    {
                        "args": list(t.argument_tones()),
                        "label": f"H{n}(" + ",".join(
                            _tone_label(a) for a in t.argument_tones()) + ")",
                        "r": list(t.r),
                        "multiplicity": term_multiplicity(t),
                    }
                    for t in terms
                ],
            })
            count += len(terms)
        orders[str(n)] = rows
        kernels_per_order[str(n)] = count
    return {
        "m_tones": m_tones,
        "max_order": max_order,
        "include_dc": include_dc,
        "n_frequencies": len(freqs),
        "kernels_per_order": kernels_per_order,
        "frequencies": [list(k) for k in freqs],
        "orders": orders,
    }


def cmd_enumerate(args) -> int:
    config = _merge(_load_config(args.config), args,
                    ["tones", "max_order", "include_dc"])
    m = int(config.get("tones", 3))
    m0 = int(config.get("max_order", 3))
    if m < 1 or m0 < 1:
        raise CliError("tones and max-order must be >= 1")
    include_dc = bool(config.get("include_dc", False))
    doc = enumeration_tables(m, m0, include_dc)
    out = _outdir(args)
    path = os.path.join(out, f"enumeration_{m}_{m0}.json")
    write_json(path, doc)
    print(f"{doc['n_frequencies']} output frequencies for {m} tones, "
          f"mixing order <= {m0}")
    for n in range(1, m0 + 1):
        rows = doc["orders"][str(n)]
        print(f"\norder {n}: {doc['kernels_per_order'][str(n)]} kernels at "
              f"{len(rows)} frequencies")
        for row in rows:
            labels = ", ".join(kk["label"] for kk in row["kernels"])
            print(f"  {row['frequency']:>14}  {row['k']}  {labels}")
    print(f"\nwrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    config = _merge(_load_config(args.config), args,
                    ["points_per_axis", "coverage", "seed", "n_extra",
                     "amp_limit_v", "validate_domain"])
    if args.levels is not None:
        config["levels_dbm"] = [float(x) for x in args.levels.split(",")]
    levels = tuple(config.get("levels_dbm", (5.0, 10.0)))
    plan = standard_sweep_plan(
        points_per_axis=int(config.get("points_per_axis", 18)),
        levels_dbm=levels,
        coverage=config.get("coverage", "cross"),
        n_extra=int(config.get("n_extra", 4)),
        seed=int(config.get("seed", 1234)),
        amp_limit_v=config.get("amp_limit_v"),
    )
    domain = config.get("validate_domain",
                        "cube" if plan.coverage == "aligned" else "ball")
    report = validate_plan(plan, domain=domain)
    print(report)
    if not report.ok:
        return EXIT_INPUT
    out = _outdir(args)
    path = os.path.join(out, "plan.json")
    save_plan(path, plan, config_hash(config))
    print(f"wrote {path}: {plan.n_triplets} triplets x "
          f"{len(plan.schedule)} amplitude vectors")
    return EXIT_OK


# ---------------------------------------------------------------------------
# probe


def cmd_probe(args) -> int:
    config = _merge(_load_config(args.config), args,
                    ["plan", "system", "settle_s", "samples_per_record"])
    if "plan" not in config:
        raise CliError("probe needs --plan <plan.json>")
    plan = load_plan(config["plan"])
    sys_obj = make_system(config.get("system", "benchmark"),
                          config.get("system_params"))
    settings = ProbeSettings(
        settle_s=config.get("settle_s"),
        samples_per_record=(int(config["samples_per_record"])
                            if config.get("samples_per_record") else None),
        include_dc=bool(config.get("include_dc", True)),
    )
    limit = getattr(sys_obj, "saturation_limit_v", None)
    if limit is not None and plan.max_amplitude_v >= limit:
        raise CliError(
            f"schedule peak {plan.max_amplitude_v:.4g} V exceeds the "
            f"system's saturation limit {limit:.4g} V")
    try:
        ds = simulate_dataset(sys_obj, plan, settings)
    except PlanInvalidError as err:
        print(f"plan failed mixing-product validation:\n{err}",
              file=sys.stderr)
        return EXIT_INPUT
    out = _outdir(args)
    path = os.path.join(out, "dataset.json")
    save_dataset(path, ds, config_hash({k: v for k, v in config.items()
                                        if k != "plan"}))
    print(f"wrote {path}: {ds.n_runs} operating points, "
          f"{len(ds.indices)} indices each")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args) -> int:
    config = _merge(_load_config(args.config), args,
                    ["dataset", "truncation", "two_stage",
                     "min_success_fraction"])
    if "dataset" not in config:
        raise CliError("extract needs --dataset <dataset.json>")
    ds = load_dataset(config["dataset"])
    settings = ExtractionSettings(
        truncation=int(config.get("truncation", 3)),
        two_stage=bool(config.get("two_stage", False)),
        min_success_fraction=float(config.get("min_success_fraction", 0.95)),
        include_dc=bool(config.get("include_dc", True)),
    )
    archive, report = extract(ds, settings=settings)
    out = _outdir(args)
    path = os.path.join(out, "archive.json")
    cfg = config_hash({k: v for k, v in config.items() if k != "dataset"})
    save_archive(path, archive, cfg)
    report_doc = {
        "success_fraction": report.success_fraction,
        "points_per_order": {str(k): v
                             for k, v in report.points_per_order.items()},
        "max_relative_residual": report.max_relative_residual,
        "n_failures": len(report.failures),
        "failures": [
            {"triplet_id": t, "k": list(k), "reason": reason}
            for t, k, reason in report.failures[:200]
        ],
        "warnings": report.warnings[:200],
    }
    save_report(os.path.join(out, "extraction_report.json"),
                "extraction-report", report_doc, cfg)
    print(f"wrote {path}")
    print(f"kernel points per order: {report.points_per_order}; "
          f"success {report.success_fraction:.1%}, "
          f"max relative residual {report.max_relative_residual:.2e}")
    if report.failures:
        print(f"{len(report.failures)} failures recorded in "
              "extraction_report.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize


def _pulse_from_config(config: dict) -> TrapezoidPulse:
    p = config.get("pulse", {})
    if isinstance(p, str):
        v0, tr, tw, tf = (float(x) for x in p.split(","))
        p = {"v0": v0, "t_rise": tr, "t_width": tw, "t_fall": tf}
    return TrapezoidPulse(
        v0=float(p.get("v0", 1.0)),
        t_rise=float(p.get("t_rise", 1e-9)),
        t_width=float(p.get("t_width", 5e-9)),
        t_fall=float(p.get("t_fall", 1e-9)),
    )


def cmd_synthesize(args) -> int:
    config = _merge(_load_config(args.config), args,
                    ["archive", "period_s", "duration_s", "dt_s", "pulse"])
    if "archive" not in config:
        raise CliError("synthesize needs --archive <archive.json>")
    archive = load_archive(config["archive"])
    pulse = _pulse_from_config(config)
    period = float(config.get("period_s", 4.0 * pulse.support))
    duration = float(config.get("duration_s", period))
    dt = float(config.get("dt_s", period / 4096))
    spectrum, spec_info = spectrum_of(
        pulse, period,
        bin_cap=float(config.get("bin_cap", 1e-4)),
        max_bins_per_side=int(config.get("max_bins_per_side", 200)))
    resp = synthesize_total(archive, spectrum, duration, dt)
    out = _outdir(args)
    cfg = config_hash({k: v for k, v in config.items() if k != "archive"})
    wave_path = os.path.join(out, "waveform.csv")
    save_waveform_csv(wave_path, resp.total, resp.per_order)
    report = {
        "period_s": period,
        "duration_s": duration,
        "dt_s": dt,
        "input_bins": spec_info.n_bins,
        "input_dropped_power_fraction": spec_info.dropped_power_fraction,
        "orders": {
            str(n): {
                "tuples": i.n_tuples,
                "bins_in_band": i.n_bins_used,
                "imag_residue": i.imag_residue,
                "dropped_tuple_fraction": i.dropped_tuple_fraction,
            } for n, i in resp.info.items()
        },
    }
    save_report(os.path.join(out, "synthesis_report.json"),
                "synthesis-report", report, cfg)
    print(f"wrote {wave_path} ({len(resp.total.samples)} samples, "
          f"orders {sorted(resp.per_order)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _kernel_error_table(archive: KernelArchive, sys_obj, max_points=400):
    rng = np.random.default_rng(0)
    table = {}
    for order, grid in archive.grids.items():
        points = list(grid.items())
        if len(points) > max_points:
            sel = rng.choice(len(points), size=max_points, replace=False)
            points = [points[i] for i in sorted(sel)]
        rel = []
        absolute = []
        for args, val in points:
            truth = kernel_oracle(sys_obj, args, order)
            if abs(truth) > 0:
                rel.append(abs(val - truth) / abs(truth))
            else:
                absolute.append(abs(val))
        table[order] = {
            "n_checked": len(points),
            "max_rel_err": float(np.max(rel)) if rel else None,
            "median_rel_err": float(np.median(rel)) if rel else None,
            "max_abs_vs_zero_truth": float(np.max(absolute)) if absolute else None,
        }
    return table


def _symmetry_audit(archive: KernelArchive, max_points=200):
    rng = np.random.default_rng(1)
    audit = {}
    for order, grid in archive.grids.items():
        points = list(grid.items())
        if len(points) > max_points:
            sel = rng.choice(len(points), size=max_points, replace=False)
            points = [points[i] for i in sorted(sel)]
        perm_ok = True
        conj_ok = True
        for args, val in points:
            perm = tuple(rng.permutation(args))
            if grid.query_exact(perm) != val:
                perm_ok = False
            flipped = grid.query_exact(tuple(-a for a in args))
            if flipped != complex(np.conj(val)):
                conj_ok = False
        audit[order] = {"permutation_exact": perm_ok,
                        "conjugate_exact": conj_ok}
    return audit


def _scaling_audit(archive, spectrum, duration, dt):
    audit = {}
    for order in sorted(archive.grids):
        base, _ = synthesize_order(archive, spectrum, order, duration, dt)
        half, _ = synthesize_order(archive, spectrum.scaled(0.5), order,
                                   duration, dt)
        dev = np.abs(half.samples - 0.5**order * base.samples).max()
        scale = np.abs(base.samples).max()
        audit[order] = float(dev / scale) if scale > 0 else 0.0
    return audit


def cmd_validate(args) -> int:
    config = _merge(_load_config(args.config), args,
                    ["archive", "system", "period_s", "duration_s", "dt_s",
                     "pulse", "total_nrmse_limit"])
    if "archive" not in config:
        raise CliError("validate needs --archive <archive.json>")
    archive = load_archive(config["archive"])
    system_name = config.get("system", "benchmark")
    sys_obj = make_system(system_name, config.get("system_params"))
    pulse = _pulse_from_config(config)
    period = float(config.get("period_s", 4.0 * pulse.support))
    duration = float(config.get("duration_s",
                                pulse.support + 20e-9))
    dt = float(config.get("dt_s", 5e-12))
    limit_total = float(config.get("total_nrmse_limit",
                                   0.10 if system_name == "amplifier" else 0.05))

    kernel_table = _kernel_error_table(archive, sys_obj)
    symmetry = _symmetry_audit(archive)
    spectrum, _ = spectrum_of(pulse, period)
    scaling = _scaling_audit(archive, spectrum, duration, dt)

    reference = transient(sys_obj, pulse, duration, dt)
    resp = synthesize_total(archive, spectrum, duration, dt)
    total_err = nrmse(resp.total.samples, reference.samples)
    linear_err = nrmse(resp.per_order[1].samples, reference.samples)

    checks = {
        "total_nrmse": {
            "value": total_err, "limit": limit_total,
            "ok": total_err <= limit_total},
        "symmetry_exact": {
            "value": all(v["permutation_exact"] and v["conjugate_exact"]
                         for v in symmetry.values()),
            "limit": True,
            "ok": all(v["permutation_exact"] and v["conjugate_exact"]
                      for v in symmetry.values())},
        "scaling_machine_precision": {
            "value": max(scaling.values()), "limit": 1e-12,
            "ok": max(scaling.values()) <= 1e-12},
    }
    if system_name in ("benchmark", "benchmark-linear"):
        h1 = kernel_table.get(1, {})
        checks["h1_vs_oracle"] = {
            "value": h1.get("max_rel_err"), "limit": 0.02,
            "ok": (h1.get("max_rel_err") or 1.0) <= 0.02}
        worst_high = max(
            (kernel_table[n]["max_rel_err"] or 1.0)
            for n in archive.grids if n > 1) if len(archive.grids) > 1 else 0.0
        checks["h2_h3_vs_oracle"] = {
            "value": worst_high, "limit": 0.05, "ok": worst_high <= 0.05}

    ok = all(c["ok"] for c in checks.values())
    report = {
        "system": system_name,
        "kernel_error_table": {str(k): v for k, v in kernel_table.items()},
        "symmetry_audit": {str(k): v for k, v in symmetry.items()},
        "scaling_audit": {str(k): v for k, v in scaling.items()},
        "time_domain": {
            "total_nrmse": total_err,
            "linear_only_nrmse": linear_err,
            "linear_to_total_ratio": (linear_err / total_err
                                      if total_err > 0 else None),
        },
        "checks": checks,
        "passed": ok,
    }
    out = _outdir(args)
    save_report(os.path.join(out, "validation_report.json"),
                "validation-report", report, config_hash(config))
    print(f"time-domain NRMSE: total {total_err:.4f}, "
          f"linear-only {linear_err:.4f}")
    for name, c in checks.items():
        status = "pass" if c["ok"] else "FAIL"
        print(f"  {status}: {name} (value {c['value']}, limit {c['limit']})")
    if not ok:
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volkit",
        description="Volterra kernel extraction from multi-tone spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--seed", dest="seed", type=int, default=None,
                       help="seed for schedule jitter")

    p = sub.add_parser("enumerate", help="mixing products and kernel tables")
    common(p)
    p.add_argument("--tones", type=int, default=None)
    p.add_argument("--max-order", dest="max_order", type=int, default=None)
    p.add_argument("--include-dc", dest="include_dc", action="store_true",
                   default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("plan", help="build and validate a sweep plan")
    common(p)
    p.add_argument("--points-per-axis", dest="points_per_axis", type=int,
                   default=None)
    p.add_argument("--levels", help="comma-separated dBm levels")
    p.add_argument("--coverage", choices=("aligned", "cross"), default=None)
    p.add_argument("--n-extra", dest="n_extra", type=int, default=None)
    p.add_argument("--amp-limit-v", dest="amp_limit_v", type=float,
                   default=None)
    p.add_argument("--validate-domain", dest="validate_domain",
                   choices=("cube", "ball"), default=None)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("probe", help="simulate the plan into a dataset")
    common(p)
    p.add_argument("--plan", default=None)
    p.add_argument("--system", default=None,
                   choices=("benchmark", "benchmark-linear", "amplifier"))
    p.add_argument("--settle-s", dest="settle_s", type=float, default=None)
    p.add_argument("--samples-per-record", dest="samples_per_record",
                   type=int, default=None)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("extract", help="separate kernels from a dataset")
    common(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--two-stage", dest="two_stage", action="store_true",
                   default=None)
    p.add_argument("--min-success-fraction", dest="min_success_fraction",
                   type=float, default=None)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("synthesize", help="pulse response from an archive")
    common(p)
    p.add_argument("--archive", default=None)
    p.add_argument("--pulse", default=None,
                   help="v0,t_rise,t_width,t_fall (seconds)")
    p.add_argument("--period-s", dest="period_s", type=float, default=None)
    p.add_argument("--duration-s", dest="duration_s", type=float, default=None)
    p.add_argument("--dt-s", dest="dt_s", type=float, default=None)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("validate", help="audit an archive against its system")
    common(p)
    p.add_argument("--archive", default=None)
    p.add_argument("--system", default=None,
                   choices=("benchmark", "benchmark-linear", "amplifier"))
    p.add_argument("--pulse", default=None)
    p.add_argument("--period-s", dest="period_s", type=float, default=None)
    p.add_argument("--duration-s", dest="duration_s", type=float, default=None)
    p.add_argument("--dt-s", dest="dt_s", type=float, default=None)
    p.add_argument("--total-nrmse-limit", dest="total_nrmse_limit",
                   type=float, default=None)
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, FormatError, OSError, ExtractionError,
            PlanInvalidError, TransientBlowupError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
