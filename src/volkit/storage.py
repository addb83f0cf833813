"""File formats: versioned JSON for plans, datasets, archives, and reports.

A dataset stores its (triplets x amplitudes x indices) phasor tensor in one
of two layouts.  ``save_dataset`` writes the array layout: the tensor as one
base64 little-endian complex128 string, ``phasors_b64``.  The per-block
layout, ``lsop_blocks``, holds one block per large-signal operating point
with phasors keyed by the index vector string and stored as [re, im] pairs,
so externally measured multi-tone spectra can be hand-written or exported
into it and fed to the extractor.  Both layouts load through one check, and
NaN (an absent key in a block) marks a missing entry.  Kernel archives
store each grid's coordinate, sum and count arrays as base64 little-endian
int64, complex128 (as interleaved float64) and int64.  Every file embeds
the format version and a config hash; readers reject unknown major
versions, and a file that does not match its schema raises FormatError.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from volkit.kernels import KernelArchive, KernelGrid
from volkit.probing import CaptureInfo, SpectralDataset, Waveform
from volkit.sweeps import SweepPlan

FORMAT_VERSION = "1.0"
_MISSING = complex(np.nan, np.nan)  # a dataset entry with no value


class FormatError(ValueError):
    """File is not a readable volkit artifact."""


def config_hash(obj) -> str:
    """Stable sha256 over the canonical JSON form of a config mapping."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _envelope(kind: str, payload: dict, cfg_hash: str | None) -> dict:
    return {
        "format": f"volkit/{kind}",
        "version": FORMAT_VERSION,
        "config_hash": cfg_hash or config_hash(payload),
        **payload,
    }


def _check_envelope(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise FormatError(f"expected a volkit/{kind} object")
    name = doc.get("format")
    if name != f"volkit/{kind}":
        raise FormatError(f"expected volkit/{kind}, found {name!r}")
    version = str(doc.get("version", ""))
    major = version.split(".")[0]
    if major != FORMAT_VERSION.split(".")[0]:
        raise FormatError(f"unsupported major version {version!r}")


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file and rename it over ``path``, so a
    reader never sees a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, doc: dict) -> None:
    """Atomic write with stable key order and a trailing newline."""
    _write_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def encode_array(arr, dtype: str) -> str:
    """Base64 of the array's bytes as ``dtype`` (for example ``"<i8"``)."""
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode()


def decode_array(blob: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype=dtype)


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a string or a number with a fraction
    raises FormatError instead of truncating."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise FormatError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _schema(from_dict):
    """Make ``<kind>_from_dict`` report any missing key, bad value or bad
    shape as a FormatError."""
    kind = from_dict.__name__.split("_")[0]

    @functools.wraps(from_dict)
    def checked(d):
        try:
            return from_dict(d)
        except FormatError:
            raise
        except (AttributeError, IndexError, KeyError, OverflowError,
                TypeError, ValueError) as err:
            raise FormatError(
                f"malformed {kind}: {type(err).__name__}: {err}") from err
    return checked


# ---------------------------------------------------------------------------
# plans


def plan_to_dict(plan: SweepPlan) -> dict:
    return {
        "plan_id": plan.plan_id,
        "df_hz": plan.df_hz,
        "max_mixing_order": plan.max_mixing_order,
        "coverage": plan.coverage,
        "axes_hz": [list(a) for a in plan.axes_hz],
        "V": [list(row) for row in plan.schedule],
    }


@_schema
def plan_from_dict(d: dict) -> SweepPlan:
    return SweepPlan(
        axes_hz=tuple(tuple(a) for a in d["axes_hz"]),
        df_hz=float(d["df_hz"]),
        max_mixing_order=_integer(d["max_mixing_order"], "max_mixing_order"),
        schedule=tuple(tuple(row) for row in d["V"]),
        coverage=d["coverage"],
        plan_id=d["plan_id"],
    )


def save_plan(path: str, plan: SweepPlan, cfg_hash: str | None = None) -> None:
    write_json(path, _envelope("plan", plan_to_dict(plan), cfg_hash))


def load_plan(path: str) -> SweepPlan:
    doc = read_json(path)
    _check_envelope(doc, "plan")
    return plan_from_dict(doc)


# ---------------------------------------------------------------------------
# datasets


def _index_key(k) -> str:
    return "[" + ",".join(str(int(v)) for v in k) + "]"


def _phasors_from_blocks(blocks, plan: SweepPlan, indices,
                         shape: tuple[int, int, int]) -> np.ndarray:
    """The phasor tensor of the per-block layout; absent keys stay NaN."""
    pos = {_index_key(k): i for i, k in enumerate(indices)}
    phasors = np.full(shape, _MISSING)
    n_trip, n_amp = shape[:2]
    seen = np.zeros((n_trip, n_amp), dtype=bool)
    for block in blocks:
        t = _integer(block["triplet_id"], "triplet_id")
        a = _integer(block["amp_id"], "amp_id")
        if not (0 <= t < n_trip and 0 <= a < n_amp):
            raise FormatError(
                f"block (triplet {t}, amplitude {a}) is outside the plan's "
                f"{n_trip} x {n_amp} operating points")
        if seen[t, a]:
            raise FormatError(f"second block for (triplet {t}, amplitude {a})")
        seen[t, a] = True
        for key, (re, im) in block["B"].items():
            phasors[t, a, pos[key]] = complex(re, im)
    # a block's tones and amplitudes must be its operating point's
    for name, table, key in (("freqs_hz", plan.triplets(), "triplet_id"),
                             ("V", plan.schedule, "amp_id")):
        want = np.array(table, dtype=float)[[int(b[key]) for b in blocks]]
        got = np.array([b[name] for b in blocks], float).reshape(want.shape)
        bad = (got != want).any(axis=1)
        if bad.any():
            i = bad.argmax()
            raise FormatError(
                f"block (triplet {blocks[i]['triplet_id']}, amplitude "
                f"{blocks[i]['amp_id']}): {name} {got[i].tolist()} is not "
                f"the plan's {want[i].tolist()}")
    return phasors


@_schema
def dataset_from_dict(d: dict) -> SpectralDataset:
    if ("phasors_b64" in d) == ("lsop_blocks" in d):
        raise FormatError("a dataset holds exactly one of phasors_b64 and "
                          "lsop_blocks")
    plan = plan_from_dict(d["plan"])
    indices = tuple(tuple(_integer(v, "k entry") for v in k) for k in d["k"])
    shape = (plan.n_triplets, len(plan.schedule), len(indices))
    if "lsop_blocks" in d:
        phasors = _phasors_from_blocks(d["lsop_blocks"], plan, indices, shape)
    else:
        phasors = decode_array(d["phasors_b64"], "<c16")
        if phasors.size != np.prod(shape):
            raise FormatError(f"phasors_b64 holds {phasors.size} values, not "
                              f"the {' x '.join(map(str, shape))} of the plan "
                              "and k")
        # a writable array of the dataset's own, not a view of the text
        phasors = phasors.reshape(shape).copy()
    # an entry is a value or missing: both parts finite, or both NaN
    bad = ~(np.isfinite(phasors)
            | (np.isnan(phasors.real) & np.isnan(phasors.imag)))
    if bad.any():
        t, a, i = np.argwhere(bad)[0]
        raise FormatError(f"non-finite phasor {_index_key(indices[i])} in "
                          f"block (triplet {t}, amplitude {a})")
    capture = None
    if d.get("capture"):
        samples = _integer(d["capture"]["samples_per_record"],
                           "samples_per_record")
        capture = CaptureInfo(**{**d["capture"],
                                 "samples_per_record": samples})
    return SpectralDataset(plan=plan, indices=indices, phasors=phasors,
                           capture=capture, source=d.get("source", "file"))


def save_dataset(path: str, ds: SpectralDataset,
                 cfg_hash: str | None = None) -> None:
    """Write ``ds`` in the array layout; every entry that is not finite is
    written as the one ``_MISSING`` value, so equal datasets give equal
    bytes."""
    payload = {
        "plan": plan_to_dict(ds.plan),
        "k": [list(k) for k in ds.indices],
        "source": ds.source,
        "capture": asdict(ds.capture) if ds.capture else None,
        "phasors_b64": encode_array(
            np.where(np.isfinite(ds.phasors), ds.phasors, _MISSING), "<c16"),
    }
    write_json(path, _envelope("dataset", payload, cfg_hash))


def load_dataset(path: str) -> SpectralDataset:
    doc = read_json(path)
    _check_envelope(doc, "dataset")
    return dataset_from_dict(doc)


# ---------------------------------------------------------------------------
# kernel archives


def archive_to_dict(archive: KernelArchive) -> dict:
    grids = {
        str(order): {
            "lattice_units": list(grid.lattice_units),
            "n_points": grid.n_points,
            "coords_b64": encode_array(grid.coords, "<i8"),
            "sums_b64": encode_array(grid.sums, "<c16"),
            "counts_b64": encode_array(grid.counts, "<i8"),
        } for order, grid in archive.grids.items()
    }
    return {
        "metadata": dict(archive.metadata),
        "df_hz": next(iter(archive.grids.values())).df_hz,
        "grids": grids,
    }


@_schema
def archive_from_dict(d: dict) -> KernelArchive:
    df = float(d["df_hz"])
    if not (np.isfinite(df) and df > 0):
        raise FormatError(f"df_hz must be finite and positive, not {df}")
    if not d["grids"]:
        raise FormatError("archive holds no grids")
    grids = {}
    for order_s, g in d["grids"].items():
        order = _integer(int(order_s) if order_s.isdecimal() else order_s,
                         "grid order key")
        n = _integer(g["n_points"], "n_points")
        coords = decode_array(g["coords_b64"], "<i8")
        if n < 0 or len(coords) != n * order:
            raise FormatError(f"order-{order} grid: {len(coords)} coordinates "
                              f"do not fit n_points={n}")
        grids[order] = KernelGrid(
            order=order, df_hz=df,
            lattice_units=tuple(_integer(u, "lattice_units entry")
                                for u in g["lattice_units"]),
            coords=coords.reshape(n, order),
            sums=decode_array(g["sums_b64"], "<c16"),
            counts=decode_array(g["counts_b64"], "<i8"))
    return KernelArchive(grids=grids, metadata=d.get("metadata", {}))


def save_archive(path: str, archive: KernelArchive,
                 cfg_hash: str | None = None) -> None:
    write_json(path, _envelope("archive", archive_to_dict(archive), cfg_hash))


def load_archive(path: str) -> KernelArchive:
    doc = read_json(path)
    _check_envelope(doc, "archive")
    return archive_from_dict(doc)


# ---------------------------------------------------------------------------
# waveforms and reports


def save_waveform_csv(path: str, total: Waveform,
                      per_order: dict[int, Waveform] | None = None) -> None:
    per_order = per_order or {}
    orders = sorted(per_order)
    header = ["t"] + [f"y{n}" for n in orders] + ["y_total"]
    lines = [",".join(header)]
    t = total.times()
    for i in range(len(total.samples)):
        row = [f"{t[i]:.17g}"]
        row += [f"{per_order[n].samples[i]:.17g}" for n in orders]
        row.append(f"{total.samples[i]:.17g}")
        lines.append(",".join(row))
    _write_atomic(path, "\n".join(lines) + "\n")


def save_report(path: str, kind: str, payload: dict,
                cfg_hash: str | None = None) -> None:
    write_json(path, _envelope(kind, payload, cfg_hash))
