import argparse
import base64
import contextlib
import io
import json
import math
import os
import re
import tracemalloc
import warnings
import zipfile
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volkit.synthesis
from volkit.cli import build_parser, main
from volkit.kernels import KernelArchive, KernelGrid
from volkit.probing import CaptureInfo, SpectralDataset
from volkit.storage import (
    FormatError,
    archive_to_dict,
    config_hash,
    load_archive,
    load_dataset,
    load_plan,
    plan_to_dict,
    save_archive,
    save_dataset,
    save_plan,
    write_json,
)
from volkit.sweeps import SweepPlan, dbm_to_volts, standard_sweep_plan
from volkit.synthesis import synthesize_order
from volkit.systems import MultiplierCascade, kernel_oracle
from volkit.extraction import RESIDUAL_TOL, analytic_dataset, extract

GOLDEN = Path(__file__).parent / "golden" / "enumeration_3_3.json"
CASCADE_KERNEL = partial(kernel_oracle, MultiplierCascade())


def tiny_plan():
    return standard_sweep_plan(points_per_axis=2, plan_id="tiny")


def _index_key(k) -> str:
    return "[" + ",".join(str(int(v)) for v in k) + "]"


def dataset_to_dict(ds):
    """Reference writer of the per-block layout: one block per operating
    point, finite phasors keyed by index vector as [re, im] pairs."""
    blocks = []
    trips = ds.plan.triplets()
    for t in range(ds.phasors.shape[0]):
        for a in range(ds.phasors.shape[1]):
            entry = {
                "triplet_id": t,
                "amp_id": a,
                "freqs_hz": list(trips[t]),
                "V": list(ds.plan.schedule[a]),
                "B": {
                    _index_key(k): [ds.phasors[t, a, i].real,
                                    ds.phasors[t, a, i].imag]
                    for i, k in enumerate(ds.indices)
                    if np.isfinite(ds.phasors[t, a, i])
                },
            }
            blocks.append(entry)
    return {
        "plan": plan_to_dict(ds.plan),
        "k": [list(k) for k in ds.indices],
        "source": ds.source,
        "capture": asdict(ds.capture) if ds.capture else None,
        "lsop_blocks": blocks,
    }


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_doc(path):
    """A volkit file as one mutable dict: a zip's header fields and its
    array members by name, or a JSON file's document."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            return read_json(path)
    with np.load(path, allow_pickle=False) as npz:
        doc = {name: npz[name] for name in npz.files}
    return {**json.loads(doc.pop("header").tobytes()), **doc}


def npy_bytes(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr)
    return buf.getvalue()


def write_npz(path, doc):
    """``read_doc``'s inverse for a zip: the array and bytes values of
    ``doc`` become members (bytes as a member's raw content), after a
    ``header`` member that holds the other fields as JSON unless ``doc``
    gives ``header`` itself."""
    members = {k: v for k, v in doc.items()
               if isinstance(v, (np.ndarray, bytes))}
    fields = {k: v for k, v in doc.items() if k not in members}
    members.setdefault("header",
                       np.frombuffer(json.dumps(fields).encode(), np.uint8))
    with zipfile.ZipFile(path, "w") as zf:
        for name in ["header", *(k for k in members if k != "header")]:
            value = members[name]
            zf.writestr(f"{name}.npy", value if isinstance(value, bytes)
                        else npy_bytes(value))


def save_blocks(path, ds):
    """``save_dataset``'s envelope around the per-block layout."""
    save_dataset(path, ds)
    doc = read_doc(path)
    del doc["phasors"]
    write_json(path, {**doc, **dataset_to_dict(ds)})


def retired_b64(doc):
    """A binary document in the base64 JSON layout of format 1.0."""
    def b64(arr):
        return base64.b64encode(arr.tobytes()).decode()

    out = {k: v for k, v in doc.items() if not isinstance(v, np.ndarray)}
    out["version"] = "1.0"
    if "phasors" in doc:
        out["phasors_b64"] = b64(doc["phasors"])
    for order, grid in out.get("grids", {}).items():
        for name in ("coords", "sums", "counts"):
            grid[f"{name}_b64"] = b64(doc[f"{name}_{order}"])
    return out


class TestRoundTrips:
    def test_plan_round_trip_exact(self, tmp_path):
        plan = tiny_plan()
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        back = load_plan(path)
        assert back == plan

    def test_dataset_round_trip_exact(self, tmp_path):
        plan = tiny_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
        path = tmp_path / "ds.json"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.indices == ds.indices
        np.testing.assert_array_equal(back.phasors, ds.phasors)
        assert back.plan == plan
        assert back.phasors.flags.writeable and back.phasors.flags.owndata

    def test_missing_entries_write_one_nan_pattern(self, tmp_path):
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        files = []
        for bad in (complex(np.nan, np.nan), complex(np.inf, 0.0),
                    -complex(np.nan, np.nan), complex(1.0, np.nan)):
            ds.phasors[1, 2, 3] = bad
            files.append(tmp_path / f"ds{len(files)}.json")
            save_dataset(files[-1], ds)
        assert len({f.read_bytes() for f in files}) == 1
        missing = np.isnan(load_dataset(files[0]).phasors)
        assert missing.sum() == 1 and missing[1, 2, 3]

    def test_dataset_with_settle_time_loads(self, tmp_path):
        # files from the time-stepping probe recorded a 200 ns settle
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        ds.capture = CaptureInfo(sample_rate_hz=8.192e9, record_s=1e-6,
                                 settle_s=2e-7, samples_per_record=8192)
        save_dataset(tmp_path / "ds.json", ds)
        assert load_dataset(tmp_path / "ds.json").capture == ds.capture

    def test_alias_floor_round_trip(self, tmp_path):
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        ds.capture = CaptureInfo(sample_rate_hz=4.096e9, record_s=1e-6,
                                 settle_s=0.0, samples_per_record=4096,
                                 alias_floor=4.218037045616180e-13)
        save_dataset(tmp_path / "ds.npz", ds)
        assert read_doc(tmp_path / "ds.npz")["capture"]["alias_floor"] == \
            ds.capture.alias_floor
        assert load_dataset(tmp_path / "ds.npz").capture == ds.capture

    def test_unmeasured_alias_floor_is_not_written(self, tmp_path):
        # a format-1.1 header without the field reads as None, and a
        # floor that was never measured writes that same header
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        ds.capture = CaptureInfo(**CAPTURE)
        assert ds.capture.alias_floor is None
        save_dataset(tmp_path / "ds.npz", ds)
        doc = read_doc(tmp_path / "ds.npz")
        assert doc["capture"] == CAPTURE and doc["version"] == "1.1"
        assert load_dataset(tmp_path / "ds.npz").capture.alias_floor is None

    def test_archive_round_trip_exact(self, tmp_path):
        plan = tiny_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
        archive, _ = extract(ds, plan)
        path = tmp_path / "archive.json"
        save_archive(path, archive)
        back = load_archive(path)
        for n, grid in archive.grids.items():
            fresh, reloaded = list(grid.items()), list(back.grid(n).items())
            assert [a for a, _ in fresh] == [a for a, _ in reloaded]
            assert (np.array([v for _, v in fresh]).tobytes()
                    == np.array([v for _, v in reloaded]).tobytes())
        assert back.metadata == archive.metadata

    def test_archive_signed_zeros_round_trip(self, tmp_path):
        grid = KernelGrid(order=1, lattice_units=(7, 41), df_hz=1e6)
        grid.insert(np.array([[7e6], [41e6]]),
                    np.array([complex(-0.0, 1.0), complex(2.0, -0.0)]))
        save_archive(tmp_path / "a.json", KernelArchive(grids={1: grid}))
        back = load_archive(tmp_path / "a.json").grid(1)
        assert back.sums.tobytes() == grid.sums.tobytes()
        np.testing.assert_array_equal(back.coords, grid.coords)

    def test_archive_to_dict_compares_stored_content(self, tmp_path):
        # the benchmark compares archives with == on these dicts
        archive = extract(analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3))[0]
        save_archive(tmp_path / "a.npz", archive)
        same = archive_to_dict(load_archive(tmp_path / "a.npz"))
        assert (same == archive_to_dict(archive)) is True
        assert not any(isinstance(v, np.ndarray) for v in same.values())
        g = archive.grids[3]
        sums = g.sums.copy()
        sums[-1] += 1.0
        archive.grids[3] = KernelGrid(g.order, g.lattice_units, g.df_hz,
                                      g.coords, sums, g.counts)
        assert same != archive_to_dict(archive)

    def test_dataset_missing_entries_become_nan(self, tmp_path):
        plan = tiny_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
        path = tmp_path / "ds.json"
        save_blocks(path, ds)
        doc = read_json(path)
        removed = doc["lsop_blocks"][5]["B"].pop("[0,1,-2]")
        write_json(path, doc)
        back = load_dataset(path)
        kpos = back.indices.index((0, 1, -2))
        t, a = doc["lsop_blocks"][5]["triplet_id"], doc["lsop_blocks"][5]["amp_id"]
        assert not np.isfinite(back.phasors[t, a, kpos])
        assert removed is not None

    def test_unknown_major_version_rejected(self, tmp_path):
        plan = tiny_plan()
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        doc = read_json(path)
        doc["version"] = "2.0"
        write_json(path, doc)
        with pytest.raises(FormatError, match="major version"):
            load_plan(path)

    def test_wrong_kind_rejected(self, tmp_path):
        plan = tiny_plan()
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        with pytest.raises(FormatError, match="expected volkit/dataset"):
            load_dataset(path)

    def test_config_hash_embedded(self, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(path, tiny_plan(), "abc123")
        assert read_json(path)["config_hash"] == "abc123"

    def test_config_hash_covers_configuration_only(self, tmp_path):
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        hashes = []
        for change in ({}, {"phasors": 2 * ds.phasors}, {"source": "lab"}):
            for key, value in change.items():
                setattr(ds, key, value)
            save_dataset(tmp_path / "ds.npz", ds)
            hashes.append(read_doc(tmp_path / "ds.npz")["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]
        doc = read_doc(tmp_path / "ds.npz")
        assert hashes[2] == config_hash(
            {key: doc[key] for key in ("plan", "k", "source", "capture")})

    def test_binary_files_keep_the_given_name(self, tmp_path):
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        save_dataset(tmp_path / "ds.json", ds)
        save_archive(tmp_path / "ar", extract(ds)[0])
        assert sorted(os.listdir(tmp_path)) == ["ar", "ds.json"]
        for name in ("ar", "ds.json"):
            with zipfile.ZipFile(tmp_path / name) as zf:
                assert all(info.compress_type == zipfile.ZIP_STORED
                           and info.date_time == (1980, 1, 1, 0, 0, 0)
                           for info in zf.infolist())
        assert load_archive(tmp_path / "ar").grid(1).n_points > 0
        with pytest.raises(FormatError, match="expected volkit/dataset"):
            load_dataset(tmp_path / "ar")


def _drop_plan(doc):
    del doc["plan"]


def _unknown_index_key(doc):
    doc["lsop_blocks"][0]["B"]["[9,9,9]"] = [1.0, 0.0]


def _block_field(key, value):
    def mutate(doc):
        doc["lsop_blocks"][1][key] = value
    return mutate


def _duplicate_block(doc):
    copy = json.loads(json.dumps(doc["lsop_blocks"][0]))
    copy["B"] = {key: [9.0, 9.0] for key in copy["B"]}
    doc["lsop_blocks"].append(copy)


def _non_finite_phasor(doc):
    block = doc["lsop_blocks"][2]
    block["B"][next(iter(block["B"]))] = [float("nan"), 0.0]


def _plan_drop_schedule(doc):
    del doc["V"]


def _set(*path, value):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _add(*path, delta):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] += delta
    return mutate


def _rename_grid(old, new):
    def mutate(doc):
        doc["grids"][new] = doc["grids"].pop(old)
    return mutate


CAPTURE = {"sample_rate_hz": 8.192e9, "record_s": 1e-6, "settle_s": 0.0,
           "samples_per_record": 8192}


def _repeat_index(doc):
    doc["k"].append(doc["k"][1])


def _two_tone_index(doc):
    doc["k"].append([1, 0])
    for block in doc["lsop_blocks"]:
        block["B"]["[1,0]"] = [1.0, 0.0]


def _member(name, fn):
    """Replace array member ``name`` with ``fn`` of it."""
    def mutate(doc):
        doc[name] = fn(doc[name])
    return mutate


def _phasor_entry(value, at=37):
    def mutate(doc):
        doc["phasors"].reshape(-1)[at] = value
    return mutate


def _grid_field(key, fn):
    return _member(f"{key}_2", fn)


def _non_finite_sum(doc):
    doc["sums_2"][0] = complex(np.inf, 0.0)


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _header_bytes(text):
    return _set("header", value=np.frombuffer(text, np.uint8))


def _keep(doc):
    pass


def _grid_points_plus_one(doc):
    doc["grids"]["3"]["n_points"] += 1


def _off_lattice(arr):
    arr.flat[0] += 1
    return arr


def _zero_count(arr):
    arr[-1] = 0
    return arr


# kinds "dataset" and "archive" are the binary files save_dataset and
# save_archive write, "blocks" the per-block layout of the reference writer,
# and "dataset-b64" and "archive-b64" the retired base64 layouts
MALFORMED = {
    "dataset without plan": ("dataset", _drop_plan),
    "dataset unknown index key": ("blocks", _unknown_index_key),
    "dataset triplet_id too large": ("blocks",
                                     _block_field("triplet_id", 10**6)),
    "dataset negative triplet_id": ("blocks", _block_field("triplet_id", -1)),
    "dataset amp_id too large": ("blocks", _block_field("amp_id", 99)),
    "dataset block without B": ("blocks", _block_field("B", None)),
    "dataset duplicate block": ("blocks", _duplicate_block),
    "dataset non-finite phasor": ("blocks", _non_finite_phasor),
    "dataset block freqs_hz off the plan": (
        "blocks", _block_field("freqs_hz", [1e9, 2e9, 3e9])),
    "dataset block V off the plan": ("blocks", _block_field("V", [9, 9, 9])),
    "dataset plan with zero df_hz": ("dataset", _set("plan", "df_hz", value=0.0)),
    "dataset repeated index": ("blocks", _repeat_index),
    "dataset index of wrong length": ("blocks", _two_tone_index),
    "dataset array index of wrong length": ("dataset",
                                            _set("k", 5, value=[1, 0])),
    "dataset invalid base64": ("dataset-b64",
                               _set("phasors_b64", value="not base64!")),
    "dataset retired base64 layout": ("dataset-b64", _keep),
    "dataset phasor bytes not whole values": (
        "dataset", _member("phasors", lambda a: npy_bytes(a)[:-8])),
    "dataset phasor count off the plan": (
        "dataset", _member("phasors", lambda a: a.reshape(-1)[:-1])),
    "dataset phasors of wrong shape": (
        "dataset", _member("phasors", lambda a: a.reshape(12, 8, 32))),
    "dataset float phasors": ("dataset", _member("phasors",
                                                 lambda a: a.real.copy())),
    "dataset object phasors": ("dataset", _member(
        "phasors", lambda a: a.astype(object))),
    "dataset big-endian phasors": ("dataset", _member(
        "phasors", lambda a: a.astype(">c16"))),
    "dataset Fortran-order phasors": ("dataset", _member(
        "phasors", np.asfortranarray)),
    "dataset without phasors member": ("dataset", _drop("phasors")),
    "dataset extra member": ("dataset", _set("extra", value=np.zeros(3))),
    "dataset header not JSON": ("dataset", _header_bytes(b"{not JSON")),
    "dataset header not an object": ("dataset", _header_bytes(b"[1, 2]")),
    "dataset header of wrong dtype": ("dataset", _set(
        "header", value=np.zeros(8, "<i4"))),
    "dataset major version 2": ("dataset", _set("version", value="2.0")),
    "dataset infinite phasor": ("dataset",
                                _phasor_entry(complex(np.inf, 0.0))),
    "dataset half-NaN phasor": ("dataset",
                                _phasor_entry(complex(np.nan, 1.0))),
    "dataset with both layouts": ("dataset", _set("lsop_blocks", value=[])),
    "dataset fractional triplet_id": ("blocks",
                                      _block_field("triplet_id", 0.9)),
    "dataset boolean amp_id": ("blocks", _block_field("amp_id", True)),
    "dataset fractional k entry": ("dataset", _add("k", 3, 0, delta=0.5)),
    "dataset fractional samples_per_record": (
        "dataset", _set("capture", value={**CAPTURE,
                                          "samples_per_record": 8192.5})),
    "dataset negative alias_floor": (
        "dataset", _set("capture", value={**CAPTURE, "alias_floor": -1e-12})),
    "dataset NaN alias_floor": (
        "dataset", _set("capture", value={**CAPTURE,
                                          "alias_floor": float("nan")})),
    "dataset infinite alias_floor": (
        "dataset", _set("capture", value={**CAPTURE,
                                          "alias_floor": float("inf")})),
    "dataset string alias_floor": (
        "dataset", _set("capture", value={**CAPTURE, "alias_floor": "1e-13"})),
    "dataset boolean alias_floor": (
        "dataset", _set("capture", value={**CAPTURE, "alias_floor": False})),
    "dataset plan fractional max_mixing_order": (
        "dataset", _set("plan", "max_mixing_order", value=3.7)),
    "plan without schedule": ("plan", _plan_drop_schedule),
    "plan with empty schedule": ("plan", _set("V", value=[])),
    "plan with zero df_hz": ("plan", _set("df_hz", value=0.0)),
    "plan with infinite df_hz": ("plan", _set("df_hz", value=float("inf"))),
    "plan with NaN axis frequency": ("plan", _set("axes_hz", 0, 1,
                                                  value=float("nan"))),
    "plan with negative axis frequency": ("plan", _set("axes_hz", 1, 0,
                                                       value=-41e6)),
    "plan with NaN amplitude": ("plan", _set("V", 0, 1, value=float("nan"))),
    "plan with infinite amplitude": ("plan", _set("V", 3, 2,
                                                  value=float("inf"))),
    "plan with negative amplitude": ("plan", _set("V", 2, 0, value=-0.5)),
    "plan with mixing order zero": ("plan", _set("max_mixing_order",
                                                 value=0)),
    "plan with empty axis": ("plan", _set("axes_hz", 1, value=[])),
    "plan fractional max_mixing_order": ("plan", _set("max_mixing_order",
                                                      value=3.7)),
    "archive n_points mismatch": ("archive", _grid_points_plus_one),
    "archive coordinate off lattice": ("archive",
                                       _grid_field("coords", _off_lattice)),
    "archive count below one": ("archive",
                                _grid_field("counts", _zero_count)),
    "archive truncated counts": ("archive",
                                 _grid_field("counts", lambda a: a[:-1])),
    "archive non-finite sum": ("archive", _non_finite_sum),
    "archive retired base64 layout": ("archive-b64", _keep),
    "archive without sums member": ("archive", _drop("sums_2")),
    "archive extra member": ("archive", _set("sums_9", value=np.zeros(2))),
    "archive float coordinates": ("archive", _member(
        "coords_3", lambda a: a.astype(float))),
    "archive coordinates of wrong shape": ("archive", _member(
        "coords_3", lambda a: a.T.copy())),
    "archive object counts": ("archive", _member(
        "counts_1", lambda a: a.astype(object))),
    "archive major version 2": ("archive", _set("version", value="2.0")),
    "archive negative df_hz": ("archive", _set("df_hz", value=-1e6)),
    "archive without grids": ("archive", _set("grids", value={})),
    "archive fractional grid order key": ("archive", _rename_grid("3", "3.5")),
    "archive fractional n_points": ("archive", _add("grids", "3", "n_points",
                                                    delta=0.5)),
    "archive fractional lattice unit": (
        "archive", _add("grids", "2", "lattice_units", 0, delta=0.4)),
}


# each kind's file, its command and its loader
FILES = {"plan": "plan.json", "dataset": "dataset.npz",
         "blocks": "blocks.json", "archive": "archive.npz",
         "dataset-b64": "dataset-b64.json", "archive-b64": "archive-b64.json"}
COMMANDS = {
    "plan": ["probe", "--plan"],
    "dataset": ["extract", "--dataset"],
    "blocks": ["extract", "--dataset"],
    "dataset-b64": ["extract", "--dataset"],
    "archive": ["synthesize", "--archive"],
    "archive-b64": ["synthesize", "--archive"],
}
LOADERS = {"plan": load_plan, "dataset": load_dataset, "blocks": load_dataset,
           "dataset-b64": load_dataset, "archive": load_archive,
           "archive-b64": load_archive}


def write_kind(kind, path, doc):
    (write_npz if kind in ("dataset", "archive") else write_json)(path, doc)


def assert_input_error(kind, path, out):
    """``path`` raises FormatError, and its command exits 3 with one
    ``error:`` line, no traceback and no output file."""
    with pytest.raises(FormatError):
        LOADERS[kind](path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*COMMANDS[kind], str(path), "--out", str(out)]) == 3
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
    assert not os.path.exists(out)  # nothing written


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    plan = tiny_plan()
    ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
    save_plan(out / "plan.json", plan)
    save_dataset(out / "dataset.npz", ds)
    save_blocks(out / "blocks.json", ds)
    save_archive(out / "archive.npz", extract(ds, plan)[0])
    for kind in ("dataset", "archive"):
        write_json(out / FILES[f"{kind}-b64"],
                   retired_b64(read_doc(out / FILES[kind])))
    return out


class TestMalformedFiles:
    """Every malformed input file ends in exit code 3 with no traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_code_3(self, case, tiny_files, tmp_path):
        kind, mutate = MALFORMED[case]
        doc = read_doc(tiny_files / FILES[kind])
        mutate(doc)
        path = tmp_path / FILES[kind]
        write_kind(kind, path, doc)
        assert_input_error(kind, path, tmp_path / "out")

    @pytest.mark.parametrize("kind, layout", [
        ("dataset-b64", "phasors_b64"), ("archive-b64", "coords_b64")])
    def test_retired_layout_is_named(self, kind, layout, tiny_files):
        with pytest.raises(FormatError, match=f"{layout}.*retired"):
            LOADERS[kind](tiny_files / FILES[kind])

    @pytest.mark.parametrize("command", ["synthesize", "validate"])
    def test_unfreezable_archive_exit_code_3(self, command, tiny_files,
                                             tmp_path, capsys):
        # a well-formed archive whose order-3 grid holds no samples loads,
        # but cannot be frozen for synthesis
        doc = read_doc(tiny_files / "archive.npz")
        doc["grids"]["3"]["n_points"] = 0
        doc.update(coords_3=np.zeros((0, 3), "<i8"),
                   sums_3=np.zeros(0, "<c16"), counts_3=np.zeros(0, "<i8"))
        path = tmp_path / "archive.npz"
        write_npz(path, doc)
        assert load_archive(path).grid(3).n_points == 0
        assert main([command, "--archive", str(path),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: order-3 grid has no samples")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synthesize", "validate"])
    def test_over_bound_archive_exit_code_3(self, command, tiny_files,
                                            tmp_path, capsys):
        # the order-3 grid re-declared on 600 lattice units keeps its
        # points on the lattice, but its dense cube is over the bound
        doc = read_doc(tiny_files / "archive.npz")
        doc["grids"]["3"]["lattice_units"] = list(range(1, 601))
        path, out = tmp_path / "archive.npz", tmp_path / "out"
        write_npz(path, doc)
        assert load_archive(path).grid(3).lattice_units[-1] == 600
        assert main([command, "--archive", str(path),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("error: order-3 grid's dense cube of 1728000000 "
                       "entries is over MAX_DENSE_ENTRIES (16777216)\n")
        assert not out.exists()

    def test_truncation_below_one_is_input_error(self, tiny_files, tmp_path,
                                                 capsys):
        assert main(["extract", "--dataset", str(tiny_files / "dataset.npz"),
                     "--truncation", "0", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: truncation") and "Traceback" not in err

    def test_unmodified_files_load(self, tiny_files):
        load_plan(tiny_files / "plan.json")
        load_dataset(tiny_files / "dataset.npz")
        load_dataset(tiny_files / "blocks.json")
        load_archive(tiny_files / "archive.npz")

    @pytest.mark.parametrize("kind", ["dataset", "blocks"])
    def test_non_finite_message_names_entry(self, kind, tiny_files, tmp_path):
        ds = load_dataset(tiny_files / "dataset.npz")
        key = _index_key(ds.indices[3])
        doc = read_doc(tiny_files / FILES[kind])
        if kind == "dataset":
            at = np.ravel_multi_index((1, 2, 3), ds.phasors.shape)
            _phasor_entry(complex(0.5, np.inf), at)(doc)
        else:
            doc["lsop_blocks"][1 * 12 + 2]["B"][key] = [0.5, float("inf")]
        write_kind(kind, tmp_path / "ds.json", doc)
        with pytest.raises(FormatError, match=re.escape(
                f"non-finite phasor {key} in block (triplet 1, amplitude 2)")):
            load_dataset(tmp_path / "ds.json")

    def test_index_arity_checked_in_memory(self):
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        indices = ds.indices[:-1] + ((1, 0),)
        with pytest.raises(ValueError, match=r"index \[1, 0\] has 2 entries "
                                             r"for the plan's 3 tones"):
            SpectralDataset(plan=ds.plan, indices=indices, phasors=ds.phasors)


def _rezip(raw, compression=zipfile.ZIP_STORED, drop=None, twice=None):
    """The zip ``raw`` rewritten: with ``compression``, without member
    ``drop``, or with member ``twice`` stored twice."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w", compression) as dst, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # duplicate name
        for name in src.namelist():
            if name != drop:
                dst.writestr(name, src.read(name))
            if name == twice:
                dst.writestr(name, src.read(name))
    return out.getvalue()


def _flip(raw, at):
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]


# whole-file damage to a binary dataset or archive
DAMAGED = {
    "truncated to half": lambda raw: raw[:len(raw) // 2],
    "truncated before the end record": lambda raw: raw[:-10],
    "zip signature only": lambda raw: raw[:4],
    "flipped data byte": lambda raw: _flip(raw, len(raw) // 2),
    "deflated members": partial(_rezip, compression=zipfile.ZIP_DEFLATED),
    "header stored twice": partial(_rezip, twice="header.npy"),
    "header dropped": partial(_rezip, drop="header.npy"),
}


@pytest.mark.parametrize("kind", ["dataset", "archive"])
@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_zip_exit_code_3(case, kind, tiny_files, tmp_path):
    path = tmp_path / FILES[kind]
    path.write_bytes(DAMAGED[case]((tiny_files / FILES[kind]).read_bytes()))
    assert_input_error(kind, path, tmp_path / "out")


def test_huge_member_claim_allocates_nothing(tiny_files, tmp_path):
    # a .npy header that claims 10^12 complex values before 16 data bytes
    doc = read_doc(tiny_files / "dataset.npz")
    header = {"descr": "<c16", "fortran_order": False,
              "shape": (10**4, 10**4, 10**4)}
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    doc["phasors"] = buf.getvalue() + bytes(16)
    write_npz(tmp_path / "ds.npz", doc)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="member phasors holds"):
            load_dataset(tmp_path / "ds.npz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.fixture
def synth_calls(monkeypatch):
    """The order of every synthesize_order call, through
    synthesize_total or not."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return synthesize_order(*args, **kwargs)

    monkeypatch.setattr(volkit.synthesis, "synthesize_order", counted)
    return calls


@pytest.fixture(scope="module")
def amp_chain(tmp_path_factory):
    """plan, probe and extract of the amplifier at 3 points per axis."""
    out = tmp_path_factory.mktemp("amp")
    assert main(["plan", "--points-per-axis", "3", "--levels=-30,-20",
                 "--amp-limit-v", "0.07", "--out", str(out)]) == 0
    assert main(["probe", "--plan", str(out / "plan.json"),
                 "--system", "amplifier", "--out", str(out)]) == 0
    assert main(["extract", "--dataset", str(out / "dataset.npz"),
                 "--out", str(out)]) == 0
    return out


class TestCli:
    def test_enumerate_matches_committed_golden(self, tmp_path):
        assert main(["enumerate", "--tones", "3", "--max-order", "3",
                     "--out", str(tmp_path)]) == 0
        got = (tmp_path / "enumeration_3_3.json").read_bytes()
        assert got == GOLDEN.read_bytes()

    def test_enumerate_single_tone(self, tmp_path, capsys):
        assert main(["enumerate", "--tones", "1", "--max-order", "1",
                     "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "enumeration_1_1.json")
        assert doc["n_frequencies"] == 1
        assert doc["frequencies"] == [[1]]

    def test_enumerate_forty_tones(self, tmp_path):
        assert main(["enumerate", "--tones", "40", "--max-order", "1",
                     "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "enumeration_40_1.json")
        assert doc["n_frequencies"] == 40

    def test_enumerate_rejects_bad_args(self, tmp_path):
        assert main(["enumerate", "--tones", "0", "--out", str(tmp_path)]) == 3

    def test_pipeline_and_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "2", "--levels", "5,10",
                     "--out", out]) == 0
        assert main(["probe", "--plan", f"{out}/plan.json",
                     "--system", "benchmark", "--out", out]) == 0
        assert main(["extract", "--dataset", f"{out}/dataset.npz",
                     "--out", out]) == 0
        assert main(["synthesize", "--archive", f"{out}/archive.npz",
                     "--pulse", "1.0,1e-9,5e-9,1e-9", "--out", out]) == 0
        csv = (tmp_path / "waveform.csv").read_text().splitlines()
        assert csv[0] == "t,y1,y2,y3,y_total"
        assert len(csv) == 4097
        # strict threshold fails (exit 2), generous threshold passes (exit 0)
        assert main(["validate", "--archive", f"{out}/archive.npz",
                     "--system", "benchmark", "--total-nrmse-limit", "1e-9",
                     "--out", out]) == 2
        assert main(["validate", "--archive", f"{out}/archive.npz",
                     "--system", "benchmark", "--total-nrmse-limit", "1.0",
                     "--out", out]) == 0
        report = read_json(tmp_path / "validation_report.json")
        assert report["checks"]["h1_vs_oracle"]["ok"]
        assert report["time_domain"]["linear_only_nrmse"] > \
            report["time_domain"]["total_nrmse"]

    def test_synthesize_report_counts_every_tuple(self, tiny_files,
                                                  tmp_path):
        archive = str(tiny_files / "archive.npz")
        assert main(["synthesize", "--archive", archive,
                     "--out", str(tmp_path)]) == 0
        orders = read_json(tmp_path / "synthesis_report.json")["orders"]
        assert sorted(orders) == ["1", "2", "3"]
        for n, row in orders.items():
            assert sorted(row) == ["bins_in_band", "tuples"]
            assert row["bins_in_band"] > 0
            assert row["tuples"] == math.comb(
                row["bins_in_band"] + int(n) - 1, int(n))

    @pytest.mark.parametrize("pulse", ["nan,1e-9,5e-9,1e-9",
                                       "inf,1e-9,5e-9,1e-9",
                                       "1,-1e-9,5e-9,-1e-9"])
    def test_synthesize_rejects_malformed_pulse(self, tiny_files, tmp_path,
                                                capsys, pulse):
        archive = str(tiny_files / "archive.npz")
        assert main(["synthesize", "--archive", archive, "--pulse", pulse,
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "waveform.csv").exists()

    def test_probe_reports_samples_per_record(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--out", out]) == 0
        for extra, n in (([], 2048), (["--samples-per-record", "4096"], 4096)):
            capsys.readouterr()
            assert main(["probe", "--plan", f"{out}/plan.json", "--system",
                         "benchmark", "--out", out, *extra]) == 0
            line = capsys.readouterr().out
            assert line.endswith(f", {n} samples per record\n")
            assert load_dataset(f"{out}/dataset.npz").capture \
                .samples_per_record == n

    def test_probe_reports_alias_floor(self, tmp_path, capsys):
        # a system without a declared degree prints the floor it measured
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--levels=-30,-20",
                     "--amp-limit-v", "0.07", "--out", out]) == 0
        capsys.readouterr()
        assert main(["probe", "--plan", f"{out}/plan.json", "--system",
                     "amplifier", "--out", out]) == 0
        line = capsys.readouterr().out
        capture = load_dataset(f"{out}/dataset.npz").capture
        assert capture.alias_floor <= 1e-9
        assert line.endswith(f", 4096 samples per record (alias floor "
                             f"{capture.alias_floor:.2g})\n")

    def test_usage_error_is_input_error(self, tmp_path, capsys):
        # exit 2 means "validation thresholds failed"; a bad flag is input
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--settle-s", "1e-7",
                  "--plan", str(tmp_path / "plan.json")])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --settle-s" in err

    def test_negative_levels_in_either_spelling(self, tmp_path):
        # argparse alone takes "-30,-20" for an option flag
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["plan", "--points-per-axis", "2", "--levels", "-30,-20",
                     "--out", str(a)]) == 0
        assert main(["plan", "--points-per-axis", "2", "--levels=-30,-20",
                     "--out", str(b)]) == 0
        assert (a / "plan.json").read_bytes() == (b / "plan.json").read_bytes()
        assert load_plan(a / "plan.json").max_amplitude_v == dbm_to_volts(-20)

    def test_plan_names_an_empty_axis(self, tmp_path, capsys):
        assert main(["plan", "--points-per-axis", "0",
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: axis 0 has no frequencies\n"
        assert os.listdir(tmp_path) == []

    def test_seed_is_a_plan_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--seed", "7", "--dataset", "x.json"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_default_validate_passes_on_amplifier(self, amp_chain, tmp_path):
        # the default pulse peaks at the amplifier's saturation limit
        assert main(["validate", "--archive", str(amp_chain / "archive.npz"),
                     "--system", "amplifier", "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "validation_report.json")
        assert report["time_domain"]["total_nrmse"] <= 0.10
        assert report["checks"]["zero_kernel_leakage"]["ok"]
        archive = load_archive(amp_chain / "archive.npz")
        assert {n: v["n_checked"]
                for n, v in report["kernel_error_table"].items()} == {
            str(n): grid.n_points for n, grid in archive.grids.items()}

    def test_validate_passes_on_linear_system(self, tmp_path):
        # its orders 2 and 3 are exactly zero: judged by the leakage check
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--out", out]) == 0
        assert main(["probe", "--plan", f"{out}/plan.json",
                     "--system", "benchmark-linear", "--out", out]) == 0
        assert main(["extract", "--dataset", f"{out}/dataset.npz",
                     "--out", out]) == 0
        # the zero phasors of orders 2 and 3 hold only rounding noise
        extraction = read_json(tmp_path / "extraction_report.json")
        assert extraction["warnings"] == []
        assert extraction["max_relative_residual"] <= RESIDUAL_TOL
        assert main(["validate", "--archive", f"{out}/archive.npz",
                     "--system", "benchmark-linear", "--out", out]) == 0
        checks = read_json(tmp_path / "validation_report.json")["checks"]
        assert checks["h2_h3_vs_oracle"]["value"] == 0.0
        assert checks["zero_kernel_leakage"]["value"] <= 1e-12

    def test_validate_fails_on_even_order_leakage(self, amp_chain, tmp_path):
        archive = load_archive(amp_chain / "archive.npz")
        odd_peak = max(abs(v) for n in (1, 3)
                       for _, v in archive.grid(n).items())
        h2 = archive.grid(2)
        sums = h2.sums.copy()
        sums[0] = 1e-2 * odd_peak * h2.counts[0]
        archive.grids[2] = KernelGrid(2, h2.lattice_units, h2.df_hz,
                                      h2.coords, sums, h2.counts)
        save_archive(tmp_path / "archive.json", archive)
        assert main(["validate", "--archive", str(tmp_path / "archive.json"),
                     "--system", "amplifier", "--out", str(tmp_path)]) == 2
        check = read_json(tmp_path / "validation_report.json")["checks"][
            "zero_kernel_leakage"]
        assert not check["ok"]
        assert check["value"] == pytest.approx(1e-2)

    def test_probe_rejects_colliding_plan(self, tmp_path):
        plan = SweepPlan(
            axes_hz=((100e6,), (200e6,), (348e6,)), df_hz=4e6,
            max_mixing_order=3,
            schedule=((0.01, 0.01, 0.01), (0.02, 0.02, 0.02),
                      (0.01, 0.02, 0.01), (0.02, 0.01, 0.02),
                      (0.015, 0.015, 0.015)),
            plan_id="bad")
        save_plan(tmp_path / "plan.json", plan)
        code = main(["probe", "--plan", str(tmp_path / "plan.json"),
                     "--system", "benchmark", "--out", str(tmp_path)])
        assert code == 3

    def test_probe_enforces_saturation_limit(self, tmp_path):
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "2", "--levels", "5,10",
                     "--out", out]) == 0
        code = main(["probe", "--plan", f"{out}/plan.json",
                     "--system", "amplifier", "--out", out])
        assert code == 3

    def test_extract_on_truncated_dataset_reports_missing(self, tmp_path):
        out = str(tmp_path)
        plan = tiny_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
        save_blocks(tmp_path / "ds.json", ds)
        doc = read_json(tmp_path / "ds.json")
        doc["lsop_blocks"][0]["B"].pop("[0,1,-2]")
        write_json(tmp_path / "ds.json", doc)
        assert main(["extract", "--dataset", f"{out}/ds.json",
                     "--out", out]) == 0
        report = read_json(tmp_path / "extraction_report.json")
        assert report["n_failures"] == 1
        assert report["failures"][0]["k"] == [0, 1, -2]

    def test_unstable_validate_step_is_input_error(self, tiny_files,
                                                   tmp_path, capsys,
                                                   synth_calls):
        # RK4 at 4 ns on the benchmark system grows past the blow-up limit,
        # which the reference run finds before any synthesis
        assert main(["validate", "--archive", str(tiny_files / "archive.npz"),
                     "--system", "benchmark", "--dt-s", "4e-9",
                     "--period-s", "2e-7", "--duration-s", "1e-7",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state magnitude")
        assert "Traceback" not in err
        assert synth_calls == []

    def test_validate_refuses_non_real_self_conjugate_sum(self, tiny_files,
                                                          tmp_path, capsys):
        # (f, -f) is its own negation, so its kernel value is real
        doc = read_doc(tiny_files / "archive.npz")
        coords = doc["coords_2"]
        doc["sums_2"][coords[:, 0] == -coords[:, 1]] += 1e-3j
        path, out = tmp_path / "archive.npz", tmp_path / "out"
        write_npz(path, doc)
        with pytest.raises(FormatError, match="self-conjugate"):
            load_archive(path)
        assert main(["validate", "--archive", str(path),
                     "--system", "benchmark", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("synthesize", ["--period-s", "inf"]),
        ("synthesize", ["--duration-s", "inf"]),
        ("synthesize", ["--period-s", "nan"]),
        ("validate", ["--period-s", "inf"]),
        ("validate", ["--duration-s", "inf"]),
        ("validate", ["--period-s", "nan"]),
    ])
    def test_non_finite_timing_is_input_error(self, tiny_files, tmp_path,
                                              capsys, command, flags):
        out = tmp_path / "out"
        system = ["--system", "benchmark"] if command == "validate" else []
        assert main([command, "--archive", str(tiny_files / "archive.npz"),
                     *system, *flags, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0", "nan", "inf", "-1e-12"])
    def test_validate_step_must_be_positive(self, tiny_files, tmp_path,
                                            capsys, synth_calls, dt):
        out = tmp_path / "out"
        assert main(["validate", "--archive", str(tiny_files / "archive.npz"),
                     "--system", "benchmark", f"--dt-s={dt}",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: time step must be positive\n"
        assert synth_calls == []
        assert not out.exists()

    def test_validate_refuses_empty_window(self, tiny_files, tmp_path,
                                           capsys, synth_calls):
        out = tmp_path / "out"
        assert main(["validate", "--archive", str(tiny_files / "archive.npz"),
                     "--system", "benchmark", "--duration-s", "0",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("error: the validation window of 0 s holds no time "
                       "step of 5e-12 s\n")
        assert synth_calls == []
        assert not out.exists()

    def test_synthesize_refuses_oversized_window(self, tiny_files, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        assert main(["synthesize", "--archive",
                     str(tiny_files / "archive.npz"), "--duration-s", "1",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 4194304 steps" in err
        assert not out.exists()

    def test_validate_refuses_oversized_window(self, tiny_files, tmp_path,
                                               capsys, synth_calls):
        out = tmp_path / "out"
        assert main(["validate", "--archive", str(tiny_files / "archive.npz"),
                     "--system", "benchmark", "--dt-s", "1e-16",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 4194304 steps" in err
        assert synth_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["nan", "-1", "1.5"])
    def test_extract_refuses_min_success_fraction(self, tiny_files, tmp_path,
                                                  capsys, fraction):
        out = tmp_path / "out"
        assert main(["extract", "--dataset", str(tiny_files / "dataset.npz"),
                     f"--min-success-fraction={fraction}",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must lie in [0, 1]" in err
        assert not out.exists()

    def test_synthesize_huge_period(self, tiny_files, tmp_path, capsys):
        # its bin count is capped before int(); at a 1 ps step the window
        # is refused instead
        archive = str(tiny_files / "archive.npz")
        assert main(["synthesize", "--archive", archive, "--period-s",
                     "1e300", "--out", str(tmp_path / "ok")]) == 0
        assert (tmp_path / "ok" / "waveform.csv").exists()
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["synthesize", "--archive", archive, "--period-s",
                     "1e300", "--dt-s", "1e-12", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 4194304 steps" in err
        assert not out.exists()

    def test_synthesize_writes_empty_window(self, tiny_files, tmp_path):
        assert main(["synthesize", "--archive",
                     str(tiny_files / "archive.npz"), "--duration-s", "0",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "waveform.csv").read_text().splitlines()
        assert lines == ["t,y1,y2,y3,y_total"]

    def test_unequal_edge_pulse_synthesizes_and_validates(self, tiny_files,
                                                          tmp_path):
        archive = str(tiny_files / "archive.npz")
        pulse = ["--pulse", "1.0,1e-9,5e-9,2e-9"]
        assert main(["synthesize", "--archive", archive, *pulse,
                     "--out", str(tmp_path)]) == 0
        assert main(["validate", "--archive", archive, "--system",
                     "benchmark", *pulse, "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "validation_report.json")
        assert report["passed"] is True
        assert sorted(report["checks"]) == [
            "h1_vs_oracle", "h2_h3_vs_oracle", "total_nrmse",
            "zero_kernel_leakage"]

    def test_validate_synthesizes_each_order_once(self, tiny_files,
                                                  tmp_path, synth_calls):
        # the one synthesize_total call gives every response validate uses
        assert main(["validate", "--archive", str(tiny_files / "archive.npz"),
                     "--system", "benchmark", "--total-nrmse-limit", "1.0",
                     "--out", str(tmp_path)]) == 0
        assert synth_calls == [1, 2, 3]

    def test_missing_input_is_input_error(self, tmp_path):
        assert main(["extract", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 3
        assert main(["probe", "--out", str(tmp_path)]) == 3

    def test_unreadable_input_is_input_error(self, tmp_path, capsys):
        assert main(["extract", "--dataset", str(tmp_path),
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tones": 2, "max_order": 2}))
        assert main(["enumerate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "enumeration_2_2.json").exists()
        assert main(["enumerate", "--config", str(cfg), "--max-order", "1",
                     "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "enumeration_2_1.json")
        assert doc["n_frequencies"] == 2

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert main(["plan", "--points-per-axis", "2", "--seed", "7",
                         "--out", str(out)]) == 0
            assert main(["probe", "--plan", f"{out}/plan.json",
                         "--system", "benchmark", "--out", str(out)]) == 0
            assert main(["extract", "--dataset", f"{out}/dataset.npz",
                         "--out", str(out)]) == 0
        for name in ("plan.json", "dataset.npz", "archive.npz"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _exit_code(argv):
    """``main``'s exit code, returned or raised by the argument parser."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (command, config file text); every one is a usage error
BAD_CONFIGS = {
    "null value": ("plan", '{"points_per_axis": null}'),
    "list value": ("plan", '{"levels": [5, 10]}'),
    "object value": ("probe", '{"system": {"name": "amplifier"}}'),
    "pulse as an object": ("synthesize", '{"pulse": {"v0": 1.0}}'),
    "fraction for an integer flag": ("plan", '{"points_per_axis": 2.7}'),
    "text for a number flag": ("extract", '{"truncation": "three"}'),
    "value outside the choices": ("plan", '{"coverage": "diagonal"}'),
    "value flag set true": ("plan", '{"seed": true}'),
    "switch set false": ("enumerate", '{"include_dc": false}'),
    "switch given a value": ("enumerate", '{"include_dc": "yes"}'),
    "unknown key": ("plan", '{"colour": "red"}'),
    "abbreviated key": ("plan", '{"points": 3}'),
    "another command's flag": ("extract", '{"seed": 7}'),
    "removed key include_dc": ("probe", '{"include_dc": true}'),
    "removed key system_params": ("probe", '{"system_params": 3}'),
    "removed key bin_cap": ("synthesize", '{"bin_cap": 0.001}'),
    "removed key max_bins_per_side": ("synthesize",
                                      '{"max_bins_per_side": 100}'),
    "removed key levels_dbm": ("plan", '{"levels_dbm": 5}'),
    "not an object": ("plan", '[["points_per_axis", 3]]'),
    "invalid JSON": ("plan", '{"points_per_axis": 3'),
}


class TestConfig:
    """A --config file holds the command's own flags, spelled as on the
    command line."""

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_malformed_config_exit_code_3(self, case, tmp_path, capsys):
        command, text = BAD_CONFIGS[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert _exit_code([command, "--config", str(cfg),
                           "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_missing_config_exit_code_3(self, tmp_path, capsys):
        assert main(["plan", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot read config")

    def test_config_writes_what_flags_write(self, tmp_path):
        flags, files = tmp_path / "flags", tmp_path / "files"
        assert main(["plan", "--points-per-axis", "2", "--levels", "-30,-20",
                     "--seed", "7", "--n-extra", "2", "--coverage", "cross",
                     "--amp-limit-v", "0.07", "--out", str(flags)]) == 0
        assert main(["probe", "--plan", str(flags / "plan.json"),
                     "--system", "amplifier", "--samples-per-record", "4096",
                     "--out", str(flags)]) == 0
        files.mkdir()
        (files / "plan-cfg.json").write_text(json.dumps({
            "points-per-axis": 2, "levels": "-30,-20", "seed": 7,
            "n_extra": 2, "coverage": "cross", "amp_limit_v": 0.07,
            "out": str(files)}))
        (files / "probe-cfg.json").write_text(json.dumps({
            "plan": str(files / "plan.json"), "system": "amplifier",
            "samples_per_record": 4096}))
        assert main(["plan", "--config", str(files / "plan-cfg.json")]) == 0
        assert main(["probe", "--config", str(files / "probe-cfg.json"),
                     "--out", str(files)]) == 0
        for name in ("plan.json", "dataset.npz"):
            assert (flags / name).read_bytes() == (files / name).read_bytes()

    @pytest.mark.parametrize("command", sorted(next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction))))
    def test_every_option_defaults_to_none(self, command):
        # a default belongs to the library function that uses the option,
        # or to the command (an `is None` test), never to the parser
        options = vars(build_parser().parse_args([command]))
        assert options.pop("command") == command
        options.pop("fn")
        assert options and all(v is None for v in options.values()), options


def _exact_cascade_dataset(points, seed):
    """The closed-form cascade dataset ``perfbench/child.py gen-dataset``
    builds."""
    system = MultiplierCascade()
    plan = standard_sweep_plan(points_per_axis=points, seed=seed,
                               plan_id=f"perfbench-{points}pt-s{seed}")
    memo = {}

    def kernel(freqs_hz, order):
        key = (tuple(freqs_hz), order)
        if key not in memo:
            memo[key] = kernel_oracle(system, freqs_hz, order)
        return memo[key]

    return analytic_dataset(kernel, plan, truncation=3)


class TestDatasetLayouts:
    """The binary file save_dataset writes and the per-block layout load
    to the same dataset."""

    def test_layouts_agree_at_scale(self, tmp_path):
        ds = _exact_cascade_dataset(8, 7)
        ds.phasors[100, 5, ds.indices.index((1, 1, -1))] = np.nan
        save_dataset(tmp_path / "array.json", ds)
        save_blocks(tmp_path / "blocks.json", ds)
        assert (tmp_path / "array.json").read_bytes()[:4] == b"PK\x03\x04"
        array = load_dataset(tmp_path / "array.json")
        blocks = load_dataset(tmp_path / "blocks.json")
        assert array.phasors.tobytes() == blocks.phasors.tobytes()
        assert array.phasors.shape == (512, 12, 32)
        assert (array.plan, array.indices, array.capture) == \
            (blocks.plan, blocks.indices, blocks.capture)
        outputs = []
        for name in ("array", "blocks"):
            out = tmp_path / f"out-{name}"
            assert main(["extract", "--dataset",
                         str(tmp_path / f"{name}.json"),
                         "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in
                            ("archive.npz", "extraction_report.json")])
        assert outputs[0] == outputs[1]
        assert read_json(tmp_path / "out-array" /
                         "extraction_report.json")["n_failures"] == 1

    def test_format_1_0_blocks_file_loads(self):
        # lsop_blocks_1_0.json was written by the format 1.0 writer
        doc = read_json(GOLDEN.parent / "lsop_blocks_1_0.json")
        assert doc["version"] == "1.0" and "lsop_blocks" in doc
        ds = load_dataset(GOLDEN.parent / "lsop_blocks_1_0.json")
        want = analytic_dataset(CASCADE_KERNEL, standard_sweep_plan(
            points_per_axis=1, plan_id="lsop-1.0"), 3)
        assert (ds.plan, ds.indices) == (want.plan, want.indices)
        assert ds.phasors.tobytes() == want.phasors.tobytes()

    def test_extract_without_indices_names_the_cause(self, tmp_path):
        doc = read_json(GOLDEN.parent / "lsop_blocks_1_0.json")
        doc["k"] = []
        for block in doc["lsop_blocks"]:
            block["B"] = {}
        write_json(tmp_path / "no-indices.json", doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["extract", "--dataset",
                         str(tmp_path / "no-indices.json"),
                         "--out", str(tmp_path / "out")]) == 3
        assert err.getvalue() == (
            "error: dataset has no output indices to extract from\n")
        assert not os.path.exists(tmp_path / "out")

    def test_cli_extract_same_from_either_layout(self, tmp_path):
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--seed", "7",
                     "--out", out]) == 0
        assert main(["probe", "--plan", f"{out}/plan.json",
                     "--system", "benchmark", "--out", out]) == 0
        assert sorted(read_doc(tmp_path / "dataset.npz")) == [
            "capture", "config_hash", "format", "k", "phasors", "plan",
            "source", "version"]
        ds = load_dataset(tmp_path / "dataset.npz")
        save_blocks(tmp_path / "blocks.json", ds)
        outputs = []
        for name in ("dataset.npz", "blocks.json"):
            sub = tmp_path / f"out-{name}"
            assert main(["extract", "--dataset", f"{out}/{name}",
                         "--out", str(sub)]) == 0
            outputs.append([(sub / f).read_bytes() for f in
                            ("archive.npz", "extraction_report.json")])
        assert outputs[0] == outputs[1]


RETYPED = (None, 0, -1, 2.5, float("nan"), float("inf"), "x", [], {}, True)


def _mutate(data, doc):
    """Apply one drawn mutation to a document of any layout, read with
    ``read_doc``; every draw is valid for the document by construction."""
    draw = data.draw

    def pick(n):
        return draw(st.integers(min_value=0, max_value=n - 1))

    blocks = doc.get("lsop_blocks")
    block = blocks[pick(len(blocks))] if blocks else None
    kind = draw(st.sampled_from(["key", "phasor", "id"] if blocks
                                else ["key", "entry"]))
    if kind == "key":
        owner = draw(st.sampled_from(
            [o for o in (doc, doc.get("plan"), block, *doc.get(
                "grids", {}).values()) if isinstance(o, dict)]))
        key = draw(st.sampled_from(sorted(owner)))
        if draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(RETYPED))
    elif kind == "id":
        block[draw(st.sampled_from(["triplet_id", "amp_id"]))] = draw(
            st.integers(min_value=-2, max_value=20))
    else:
        value = complex(draw(st.floats()), draw(st.floats()))
        if kind == "entry":
            name = draw(st.sampled_from(sorted(
                k for k, v in doc.items() if isinstance(v, np.ndarray))))
            flat = doc[name].reshape(-1)
            if len(flat):
                flat[pick(len(flat))] = (value if flat.dtype.kind == "c"
                                         else draw(st.integers(-2, 9)))
        else:
            key = draw(st.sampled_from(sorted(block["B"])))
            block["B"][key] = [value.real, value.imag]


def _damage(data, raw):
    """Truncate ``raw`` at a drawn byte, flip a drawn byte or drop a drawn
    member."""
    draw = data.draw
    kind = draw(st.sampled_from(["truncate", "flip", "drop"]))
    at = draw(st.integers(min_value=0, max_value=len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) \
            + raw[at + 1:]
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        names = zf.namelist()
    return _rezip(raw, drop=draw(st.sampled_from(names)))


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mutate")
    ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
    save_dataset(out / "dataset.npz", ds)
    save_blocks(out / "blocks.json", ds)
    save_archive(out / "archive.npz", extract(ds)[0])
    return out


@pytest.mark.parametrize("layout", ["dataset", "blocks", "archive"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_dataset_loads_or_raises_format_error(layout, mutation_dir,
                                                      data):
    # binary files are damaged byte by byte or edited member by member
    source = mutation_dir / FILES[layout]
    path = mutation_dir / f"mutated-{FILES[layout]}"
    if layout != "blocks" and data.draw(st.booleans()):
        path.write_bytes(_damage(data, source.read_bytes()))
    else:
        doc = read_doc(source)
        _mutate(data, doc)
        write_kind(layout, path, doc)
    try:
        loaded = LOADERS[layout](path)
    except FormatError:
        assert_input_error(layout, path, mutation_dir / "out")
        return
    if layout == "archive":
        for grid in loaded.grids.values():
            assert np.isfinite(grid.sums).all() and (grid.counts >= 1).all()
        return
    values = loaded.phasors
    assert (np.isfinite(values)
            | (np.isnan(values.real) & np.isnan(values.imag))).all()
