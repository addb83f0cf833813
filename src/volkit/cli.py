"""Command-line pipeline: enumerate, plan, probe, extract, synthesize, validate.

Every option flag defaults to None, and a command passes the library only
the options that were set, so each default lives in the one function that
uses it.  ``--config FILE`` holds a JSON object of the command's own flags,
``{"points-per-axis": 3, "levels": "-30,-20"}``, read as if given ahead of
the command line, so explicit flags override it.  Every option that was
set, except ``--out``, ``--config`` and the input file, is hashed into the
output files, so a run is reproducible from the artifacts alone.

Exit codes: 0 success, 2 validation thresholds failed, 3 input error
(including an archive too sparse to freeze or synthesize from).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from volkit.extraction import ExtractionError, extract
from volkit.kernels import EmptyGridError, KernelArchive
from volkit.mixing import (
    enumerate_kernels_for_order,
    enumerate_output_indices,
    term_multiplicity,
)
from volkit.probing import (
    PlanInvalidError,
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
    TrapezoidPulse,
    nrmse,
    spectrum_of,
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


# --system's choices, each with its constructor
SYSTEMS = {
    "benchmark": MultiplierCascade,
    "benchmark-linear": lambda: MultiplierCascade(include_orders=(1,)),
    "amplifier": SaturatingAmplifier,
}


def _options(args: argparse.Namespace, source: str | None = None) -> dict:
    """The options that were set, by name, except ``--out``, ``--config``
    and the input file ``source``: what a command hashes."""
    return {key: value for key, value in vars(args).items()
            if value is not None
            and key not in ("command", "fn", "config", "out", source)}


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
    m = 3 if args.tones is None else args.tones
    m0 = 3 if args.max_order is None else args.max_order
    if m < 1 or m0 < 1:
        raise CliError("tones and max-order must be >= 1")
    doc = enumeration_tables(m, m0, bool(args.include_dc))
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
    options = _options(args)
    plan = standard_sweep_plan(**options)
    report = validate_plan(
        plan, domain="cube" if plan.coverage == "aligned" else "ball")
    print(report)
    if not report.ok:
        return EXIT_INPUT
    out = _outdir(args)
    path = os.path.join(out, "plan.json")
    save_plan(path, plan, config_hash(options))
    print(f"wrote {path}: {plan.n_triplets} triplets x "
          f"{len(plan.schedule)} amplitude vectors")
    return EXIT_OK


# ---------------------------------------------------------------------------
# probe


def cmd_probe(args) -> int:
    if args.plan is None:
        raise CliError("probe needs --plan <plan.json>")
    plan = load_plan(args.plan)
    sys_obj = SYSTEMS["benchmark" if args.system is None else args.system]()
    limit = getattr(sys_obj, "saturation_limit_v", None)
    if limit is not None and plan.max_amplitude_v >= limit:
        raise CliError(
            f"schedule peak {plan.max_amplitude_v:.4g} V exceeds the "
            f"system's saturation limit {limit:.4g} V")
    try:
        ds = simulate_dataset(sys_obj, plan, args.samples_per_record)
    except PlanInvalidError as err:
        print(f"plan failed mixing-product validation:\n{err}",
              file=sys.stderr)
        return EXIT_INPUT
    out = _outdir(args)
    path = os.path.join(out, "dataset.npz")
    save_dataset(path, ds, config_hash(_options(args, "plan")))
    floor = ds.capture.alias_floor
    print(f"wrote {path}: {ds.n_runs} operating points, "
          f"{len(ds.indices)} indices each, "
          f"{ds.capture.samples_per_record} samples per record"
          + ("" if floor is None else f" (alias floor {floor:.2g})"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args) -> int:
    if args.dataset is None:
        raise CliError("extract needs --dataset <dataset.npz>")
    ds = load_dataset(args.dataset)
    options = _options(args, "dataset")
    archive, report = extract(ds, **options)
    out = _outdir(args)
    path = os.path.join(out, "archive.npz")
    cfg = config_hash(options)
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


def _pulse(spec: str | None, sys_obj=None) -> TrapezoidPulse:
    """The pulse ``v0,t_rise,t_width,t_fall`` of ``--pulse``; unset, the
    default pulse, peaking at the system's saturation limit if it has one."""
    if spec is not None:
        v0, t_rise, t_width, t_fall = (float(x) for x in spec.split(","))
        return TrapezoidPulse(v0, t_rise, t_width, t_fall)
    limit = getattr(sys_obj, "saturation_limit_v", None)
    return TrapezoidPulse() if limit is None else TrapezoidPulse(v0=limit)


def cmd_synthesize(args) -> int:
    if args.archive is None:
        raise CliError("synthesize needs --archive <archive.npz>")
    archive = load_archive(args.archive)
    pulse = _pulse(args.pulse)
    period = 4.0 * pulse.support if args.period_s is None else args.period_s
    duration = period if args.duration_s is None else args.duration_s
    dt = period / 4096 if args.dt_s is None else args.dt_s
    spectrum, spec_info = spectrum_of(pulse, period)
    resp = synthesize_total(archive, spectrum, duration, dt)
    out = _outdir(args)
    cfg = config_hash(_options(args, "archive"))
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


def _kernel_error_table(archive: KernelArchive, sys_obj):
    """Per-order error against the oracle at every stored point, and the
    zero-kernel leakage: the largest |value| where the oracle is exactly
    0 over the largest |value| where it is not."""
    table = {}
    zero_peak = live_peak = 0.0
    for order, grid in archive.grids.items():
        args = grid.coords * grid.df_hz
        vals = grid.query_exact(args)
        truth = kernel_oracle(sys_obj, args, order)
        live = truth != 0
        rel = np.abs(vals[live] - truth[live]) / np.abs(truth[live])
        absolute = np.abs(vals[~live])
        table[order] = {
            "n_checked": len(vals),
            "max_rel_err": float(rel.max()) if rel.size else None,
            "median_rel_err": float(np.median(rel)) if rel.size else None,
            "max_abs_vs_zero_truth": (float(absolute.max()) if absolute.size
                                      else None),
        }
        zero_peak = max(zero_peak, absolute.max(initial=0.0))
        live_peak = max(live_peak, np.abs(vals[live]).max(initial=0.0))
    leakage = float(zero_peak / live_peak) if zero_peak else 0.0
    return table, leakage


def cmd_validate(args) -> int:
    if args.archive is None:
        raise CliError("validate needs --archive <archive.npz>")
    archive = load_archive(args.archive)
    system_name = "benchmark" if args.system is None else args.system
    sys_obj = SYSTEMS[system_name]()
    pulse = _pulse(args.pulse, sys_obj)
    period = 4.0 * pulse.support if args.period_s is None else args.period_s
    duration = (pulse.support + 20e-9 if args.duration_s is None
                else args.duration_s)
    dt = 5e-12 if args.dt_s is None else args.dt_s
    limit_total = args.total_nrmse_limit
    if limit_total is None:
        limit_total = 0.10 if system_name == "amplifier" else 0.05

    # the reference first: a step too coarse for the system fails at once
    reference = transient(sys_obj, pulse, duration, dt)
    if not len(reference.samples):
        raise CliError(f"the validation window of {duration:g} s holds no "
                       f"time step of {dt:g} s")
    kernel_table, leakage = _kernel_error_table(archive, sys_obj)
    spectrum, _ = spectrum_of(pulse, period)
    resp = synthesize_total(archive, spectrum, duration, dt)
    total_err = nrmse(resp.total.samples, reference.samples)
    linear_err = nrmse(resp.per_order[1].samples, reference.samples)

    checks = {
        "total_nrmse": {
            "value": total_err, "limit": limit_total,
            "ok": total_err <= limit_total},
        "zero_kernel_leakage": {
            "value": leakage, "limit": 1e-3, "ok": leakage <= 1e-3},
    }
    if system_name in ("benchmark", "benchmark-linear"):
        h1 = kernel_table.get(1, {}).get("max_rel_err")
        checks["h1_vs_oracle"] = {
            "value": h1, "limit": 0.02, "ok": h1 is not None and h1 <= 0.02}
        # an order whose oracle is 0 everywhere is judged by the leakage
        worst_high = max((v["max_rel_err"] for n, v in kernel_table.items()
                          if n > 1 and v["max_rel_err"] is not None),
                         default=0.0)
        checks["h2_h3_vs_oracle"] = {
            "value": worst_high, "limit": 0.05, "ok": worst_high <= 0.05}

    ok = all(c["ok"] for c in checks.values())
    report = {
        "system": system_name,
        "kernel_error_table": {str(k): v for k, v in kernel_table.items()},
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
                "validation-report", report,
                config_hash(_options(args, "archive")))
    print(f"time-domain NRMSE: total {total_err:.4f}, "
          f"linear-only {linear_err:.4f}")
    for name, c in checks.items():
        status = "pass" if c["ok"] else "FAIL"
        print(f"  {status}: {name} (value {c['value']}, limit {c['limit']})")
    if not ok:
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3), not argparse's 2.
    Long flags are spelled out in full, so a config key is a flag name or
    an error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="volkit",
        description="Volterra kernel extraction from multi-tone spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config",
                       help="JSON object of this command's flags")
        p.add_argument("--out", help="output directory (default .)")

    p = sub.add_parser("enumerate", help="mixing products and kernel tables")
    common(p)
    p.add_argument("--tones", type=int)
    p.add_argument("--max-order", dest="max_order", type=int)
    p.add_argument("--include-dc", dest="include_dc", action="store_true",
                   default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("plan", help="build and validate a sweep plan")
    common(p)
    p.add_argument("--points-per-axis", dest="points_per_axis", type=int)
    p.add_argument("--levels", dest="levels_dbm", type=_float_list,
                   metavar="LEVELS", help="comma-separated dBm levels")
    p.add_argument("--seed", type=int, help="seed for schedule jitter")
    p.add_argument("--coverage", choices=("aligned", "cross"))
    p.add_argument("--n-extra", dest="n_extra", type=int)
    p.add_argument("--amp-limit-v", dest="amp_limit_v", type=float)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("probe", help="simulate the plan into a dataset")
    common(p)
    p.add_argument("--plan")
    p.add_argument("--system", choices=SYSTEMS)
    p.add_argument("--samples-per-record", dest="samples_per_record",
                   type=int)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("extract", help="separate kernels from a dataset")
    common(p)
    p.add_argument("--dataset", help="dataset.npz, or lsop_blocks JSON")
    p.add_argument("--truncation", type=int)
    p.add_argument("--min-success-fraction", dest="min_success_fraction",
                   type=float)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("synthesize", help="pulse response from an archive")
    common(p)
    p.add_argument("--archive", help="archive.npz")
    p.add_argument("--pulse", help="v0,t_rise,t_width,t_fall (seconds)")
    p.add_argument("--period-s", dest="period_s", type=float)
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument("--dt-s", dest="dt_s", type=float)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("validate", help="audit an archive against its system")
    common(p)
    p.add_argument("--archive", help="archive.npz")
    p.add_argument("--system", choices=SYSTEMS)
    p.add_argument("--pulse")
    p.add_argument("--period-s", dest="period_s", type=float)
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument("--dt-s", dest="dt_s", type=float)
    p.add_argument("--total-nrmse-limit", dest="total_nrmse_limit",
                   type=float)
    p.set_defaults(fn=cmd_validate)
    return parser


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _config_flags(path: str) -> list[str]:
    """The flags a --config file spells.  Each key is a flag name without
    the leading ``--`` (``_`` or ``-`` between words); a string or number is
    the flag's value, as on the command line, and ``true`` sets a switch."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise CliError(f"cannot read config {path}: {err}")
    if not isinstance(doc, dict):
        raise CliError(f"config {path} is not a JSON object of flags")
    flags = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif isinstance(value, (str, int, float)) \
                and not isinstance(value, bool):
            flags.append(f"{flag}={value}")
        else:
            raise CliError(f"config {path}: {key!r} is {json.dumps(value)}; "
                           "a flag value is a string, a number or true")
    return flags


def _join_levels(argv: list[str]) -> list[str]:
    """``--levels -30,-20`` as ``--levels=-30,-20``: argparse takes a value
    that starts with a minus sign for an option flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--levels":
            out[-1] = f"--levels={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_levels(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argv[0] is the command: the top-level parser has no options
            args = parser.parse_args(
                argv[:1] + _config_flags(args.config) + argv[1:])
        return args.fn(args)
    except (CliError, FormatError, OSError, ExtractionError, EmptyGridError,
            PlanInvalidError, TransientBlowupError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
