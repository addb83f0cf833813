"""File formats: versioned plans, datasets, kernel archives and reports.

Plans and reports are JSON.  Datasets and archives are uncompressed numpy
``.npz`` zips of ``.npy`` members, no pickles: ``header``, the JSON
envelope and configuration as uint8, plus little-endian arrays.  A dataset
holds its (triplets x amplitudes x indices) complex128 ``phasors``; an
archive, per order n, canonical coordinates ``coords_n`` (int64, points x
n, in units of ``df_hz``), complex128 ``sums_n`` and int64 ``counts_n``.
Readers go by the file's first bytes: a zip is binary, anything else JSON.
The one JSON dataset layout is ``lsop_blocks``, one block per large-signal
operating point with phasors keyed by the index vector string as [re, im]
pairs, so measured spectra can be hand-written or exported into it.  NaN
(or an absent key) marks a missing entry.  The base64 layouts of format
1.0 (``phasors_b64`` and ``*_b64`` grids) are retired.  A member is read
only once its size, dtype and shape match the header and the file.  Files
embed the format version and a config hash; readers reject unknown major
versions, and a file that does not match its schema raises FormatError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zipfile
from dataclasses import asdict

import numpy as np

from volkit.kernels import KernelArchive, KernelGrid
from volkit.probing import CaptureInfo, SpectralDataset, Waveform
from volkit.sweeps import SweepPlan

FORMAT_VERSION = "1.1"
_MISSING = complex(np.nan, np.nan)  # a dataset entry with no value
# what a file that does not match its schema, or a damaged zip, raises
_MALFORMED = (AttributeError, EOFError, IndexError, KeyError, OverflowError,
              NotImplementedError, OSError, RuntimeError, TypeError,
              ValueError, struct.error, zipfile.BadZipFile)
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


class FormatError(ValueError):
    """File is not a readable volkit artifact."""


def config_hash(obj) -> str:
    """Stable sha256 over the canonical JSON form of a config mapping.

    A file saved without an explicit hash gets the hash of its header
    payload, which is configuration only: a plan; a dataset's plan, ``k``,
    ``source`` and ``capture``; an archive's metadata, ``df_hz``, grid
    lattices and point counts.  No phasor or grid array is hashed."""
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


def _write_atomic(path: str, write) -> None:
    """Run ``write`` on a temporary binary file, then rename it over
    ``path``: a reader never sees a partial file, and the name is kept."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)


def write_json(path: str, doc: dict) -> None:
    """Atomic write with stable key order and a trailing newline."""
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    _write_atomic(path, lambda fh: fh.write(text.encode()))


def _write_npz(path: str, doc: dict, arrays: dict) -> None:
    """``header`` (``doc`` as JSON) and ``arrays`` as one uncompressed zip,
    each entry dated 1980-01-01 as in ``np.savez``, so equal content gives
    equal bytes."""
    header = np.frombuffer(json.dumps(doc, sort_keys=True).encode(), np.uint8)

    def write(fh):
        with zipfile.ZipFile(fh, "w") as zf:
            for name, arr in {"header": header, **arrays}.items():
                info = zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0))
                with zf.open(info, "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, arr, allow_pickle=False)
    _write_atomic(path, write)


def _member(zf: zipfile.ZipFile, name: str, dtype: str, shape,
            file_bytes: int) -> np.ndarray:
    """Member ``name`` as an array of its own, allocated only once its
    stored size, dtype and shape (None: any 1-D) check out, so a header
    that claims more than the file holds allocates nothing."""
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED \
            or not info.compress_size == info.file_size <= file_bytes:
        raise FormatError(f"member {name} is compressed or outgrows the file")
    with zf.open(info) as fh:
        got, fortran, got_dtype = _NPY_HEADERS[
            np.lib.format.read_magic(fh)](fh)
        size = info.file_size - fh.tell()
        want = got[:1] if shape is None else tuple(shape)
        if (got_dtype != np.dtype(dtype) or fortran or got != want
                or size != math.prod(got) * got_dtype.itemsize):
            raise FormatError(f"member {name} holds {got_dtype} {got} in "
                              f"{size} bytes, not {np.dtype(dtype)} {want}")
        out = np.empty(got, got_dtype)
        # in np.load's step, which stays in cache; a short member raises
        buf, step = out.reshape(-1).view(np.uint8), np.lib.format.BUFFER_SIZE
        for at in range(0, size, step):
            fh.readinto(buf[at:at + step])
    return out


def _load(path: str, kind: str, from_dict):
    """``from_dict(doc, read)`` of the file at ``path``.  For a zip,
    ``doc`` is its header and ``read(name, dtype, shape)`` a checked array
    member, and every member must be read; otherwise ``doc`` is the JSON
    document and ``read`` None.  Any malformation raises FormatError."""
    with open(path, "rb") as fh:
        try:
            zipped = fh.read(4) == b"PK\x03\x04"
            file_bytes = fh.seek(0, os.SEEK_END)
            fh.seek(0)
            if not zipped:
                doc = json.load(fh)
                _check_envelope(doc, kind)
                return from_dict(doc, None)
            with np.load(fh, allow_pickle=False) as npz:
                names = []

                def read(name, dtype, shape):
                    names.append(f"{name}.npy")
                    return _member(npz.zip, name, dtype, shape, file_bytes)

                doc = json.loads(read("header", "|u1", None).tobytes())
                _check_envelope(doc, kind)
                out = from_dict(doc, read)
                if sorted(npz.zip.namelist()) != sorted(names):
                    raise FormatError(f"{kind} members "
                                      f"{npz.zip.namelist()} are not {names}")
                return out
        except FormatError:
            raise
        except _MALFORMED as err:
            raise FormatError(
                f"malformed {kind}: {type(err).__name__}: {err}") from err


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a string or a number with a fraction
    raises FormatError instead of truncating."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise FormatError(f"{name} must be an integer, not {value!r}")
    return int(value)


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
    return _load(path, "plan", lambda doc, read: plan_from_dict(doc))


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


def dataset_from_dict(d: dict, read) -> SpectralDataset:
    """The dataset of a binary header and its ``phasors`` member, or of a
    JSON document in the ``lsop_blocks`` layout (``read`` is None)."""
    if "phasors_b64" in d or read and "lsop_blocks" in d:
        raise FormatError("a dataset file is binary .npz or lsop_blocks "
                          "JSON; phasors_b64, the base64 layout of format "
                          "1.0, is retired")
    plan = plan_from_dict(d["plan"])
    indices = tuple(tuple(_integer(v, "k entry") for v in k) for k in d["k"])
    shape = (plan.n_triplets, len(plan.schedule), len(indices))
    if read is None:
        phasors = _phasors_from_blocks(d["lsop_blocks"], plan, indices, shape)
    else:
        phasors = read("phasors", "<c16", shape)
    # an entry is a value or missing: both parts finite, or both NaN
    if not np.isfinite(phasors.view(float)).all():
        bad = ~(np.isfinite(phasors)
                | (np.isnan(phasors.real) & np.isnan(phasors.imag)))
        if bad.any():
            t, a, i = np.argwhere(bad)[0]
            raise FormatError(f"non-finite phasor {_index_key(indices[i])} "
                              f"in block (triplet {t}, amplitude {a})")
    capture = None
    if d.get("capture"):
        samples = _integer(d["capture"]["samples_per_record"],
                           "samples_per_record")
        floor = d["capture"].get("alias_floor")
        if floor is not None and (
                isinstance(floor, bool) or not isinstance(floor, (int, float))
                or not (math.isfinite(floor) and floor >= 0)):
            raise FormatError(f"alias_floor must be a finite nonnegative "
                              f"number, not {floor!r}")
        capture = CaptureInfo(**{**d["capture"],
                                 "samples_per_record": samples})
    return SpectralDataset(plan=plan, indices=indices, phasors=phasors,
                           capture=capture, source=d.get("source", "file"))


def _capture_dict(capture: CaptureInfo | None) -> dict | None:
    """The header's ``capture``; an ``alias_floor`` that was not measured
    is left out, so such headers read as they did before the field."""
    if capture is None:
        return None
    out = asdict(capture)
    if out["alias_floor"] is None:
        del out["alias_floor"]
    return out


def save_dataset(path: str, ds: SpectralDataset,
                 cfg_hash: str | None = None) -> None:
    """Write ``ds`` as a binary dataset; every entry that is not finite is
    written as the one ``_MISSING`` value, so equal datasets give equal
    bytes."""
    payload = {
        "plan": plan_to_dict(ds.plan),
        "k": [list(k) for k in ds.indices],
        "source": ds.source,
        "capture": _capture_dict(ds.capture),
    }
    phasors = np.where(np.isfinite(ds.phasors), ds.phasors, _MISSING)
    _write_npz(path, _envelope("dataset", payload, cfg_hash),
               {"phasors": phasors.astype("<c16", copy=False)})


def load_dataset(path: str) -> SpectralDataset:
    return _load(path, "dataset", dataset_from_dict)


# ---------------------------------------------------------------------------
# kernel archives

_GRID_ARRAYS = (("coords", "<i8"), ("sums", "<c16"), ("counts", "<i8"))


def _archive_parts(archive: KernelArchive) -> tuple[dict, dict]:
    """The header payload of an archive file and its array members."""
    header = {
        "metadata": dict(archive.metadata),
        "df_hz": next(iter(archive.grids.values())).df_hz,
        "grids": {str(order): {"lattice_units": list(grid.lattice_units),
                               "n_points": grid.n_points}
                  for order, grid in archive.grids.items()},
    }
    arrays = {f"{name}_{order}": np.ascontiguousarray(getattr(grid, name),
                                                      dtype)
              for order, grid in archive.grids.items()
              for name, dtype in _GRID_ARRAYS}
    return header, arrays


def archive_to_dict(archive: KernelArchive) -> dict:
    """The archive's stored content as plain values, the header fields and
    each array member's raw bytes: equal dicts mean equal stored content."""
    header, arrays = _archive_parts(archive)
    return {**header, **{name: arr.tobytes() for name, arr in arrays.items()}}


def archive_from_dict(d: dict, read) -> KernelArchive:
    """The archive of a binary header and its grid members."""
    if read is None:
        raise FormatError("JSON archives (coords_b64, sums_b64 and "
                          "counts_b64, the base64 layout of format 1.0) are "
                          "retired: an archive file is binary .npz")
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
        shapes = {"coords": (n, order), "sums": (n,), "counts": (n,)}
        grids[order] = KernelGrid(
            order=order, df_hz=df,
            lattice_units=tuple(_integer(u, "lattice_units entry")
                                for u in g["lattice_units"]),
            **{name: read(f"{name}_{order}", dtype, shapes[name])
               for name, dtype in _GRID_ARRAYS})
    return KernelArchive(grids=grids, metadata=d.get("metadata", {}))


def save_archive(path: str, archive: KernelArchive,
                 cfg_hash: str | None = None) -> None:
    header, arrays = _archive_parts(archive)
    _write_npz(path, _envelope("archive", header, cfg_hash), arrays)


def load_archive(path: str) -> KernelArchive:
    return _load(path, "archive", archive_from_dict)


# ---------------------------------------------------------------------------
# waveforms and reports


def save_waveform_csv(path: str, total: Waveform,
                      per_order: dict[int, Waveform] | None = None) -> None:
    per_order = per_order or {}
    orders = sorted(per_order)
    header = ",".join(["t", *(f"y{n}" for n in orders), "y_total"])
    cols = [total.times(), *(per_order[n].samples for n in orders),
            total.samples]
    _write_atomic(path, lambda fh: np.savetxt(
        fh, np.column_stack(cols), fmt="%.17g", delimiter=",",
        header=header, comments=""))


def save_report(path: str, kind: str, payload: dict,
                cfg_hash: str | None = None) -> None:
    write_json(path, _envelope(kind, payload, cfg_hash))
