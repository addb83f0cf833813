import argparse
import base64
import json
import os
import re
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volkit.cli
import volkit.synthesis
from volkit.cli import build_parser, main
from volkit.kernels import KernelArchive, KernelGrid
from volkit.probing import CaptureInfo, SpectralDataset
from volkit.storage import (
    FormatError,
    decode_array,
    encode_array,
    load_archive,
    load_dataset,
    load_plan,
    plan_to_dict,
    read_json,
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


def save_blocks(path, ds):
    """``save_dataset``'s envelope around the per-block layout."""
    save_dataset(path, ds)
    doc = read_json(path)
    del doc["phasors_b64"]
    write_json(path, {**doc, **dataset_to_dict(ds)})


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

    def test_dataset_missing_entries_become_nan(self, tmp_path):
        plan = tiny_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
        path = tmp_path / "ds.json"
        save_blocks(path, ds)
        doc = read_json(path)
        removed = doc["lsop_blocks"][5]["B"].pop("[0,1,-2]")
        write_json(path, doc)
        back = load_dataset(path)
        kpos = back.index_position((0, 1, -2))
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


def _phasor_bytes(fn):
    def mutate(doc):
        raw = base64.b64decode(doc["phasors_b64"])
        doc["phasors_b64"] = base64.b64encode(fn(raw)).decode()
    return mutate


def _phasor_entry(value, at=37):
    def mutate(doc):
        phasors = decode_array(doc["phasors_b64"], "<c16").copy()
        phasors[at] = value
        doc["phasors_b64"] = encode_array(phasors, "<c16")
    return mutate


def _grid_field(key, fn):
    def mutate(doc):
        grid = doc["grids"]["2"]
        arr = decode_array(grid[key], "<i8").copy()
        grid[key] = encode_array(fn(arr), "<i8")
    return mutate


def _non_finite_sum(doc):
    grid = doc["grids"]["2"]
    sums = decode_array(grid["sums_b64"], "<c16").copy()
    sums[0] = complex(np.inf, 0.0)
    grid["sums_b64"] = encode_array(sums, "<c16")


def _grid_points_plus_one(doc):
    doc["grids"]["3"]["n_points"] += 1


def _off_lattice(arr):
    arr[0] += 1
    return arr


def _zero_count(arr):
    arr[-1] = 0
    return arr


# kind "dataset" is the array layout save_dataset writes, kind "blocks" the
# per-block layout of the reference writer
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
    "dataset invalid base64": ("dataset",
                               _set("phasors_b64", value="not base64!")),
    "dataset phasor bytes not whole values": ("dataset",
                                              _phasor_bytes(lambda b: b[:-8])),
    "dataset phasor count off the plan": ("dataset",
                                          _phasor_bytes(lambda b: b[:-16])),
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
                                       _grid_field("coords_b64", _off_lattice)),
    "archive count below one": ("archive",
                                _grid_field("counts_b64", _zero_count)),
    "archive truncated counts": ("archive",
                                 _grid_field("counts_b64", lambda a: a[:-1])),
    "archive non-finite sum": ("archive", _non_finite_sum),
    "archive negative df_hz": ("archive", _set("df_hz", value=-1e6)),
    "archive without grids": ("archive", _set("grids", value={})),
    "archive fractional grid order key": ("archive", _rename_grid("3", "3.5")),
    "archive fractional n_points": ("archive", _add("grids", "3", "n_points",
                                                    delta=0.5)),
    "archive fractional lattice unit": (
        "archive", _add("grids", "2", "lattice_units", 0, delta=0.4)),
}


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    plan = tiny_plan()
    ds = analytic_dataset(CASCADE_KERNEL, plan, 3)
    save_plan(out / "plan.json", plan)
    save_dataset(out / "dataset.json", ds)
    save_blocks(out / "blocks.json", ds)
    save_archive(out / "archive.json", extract(ds, plan)[0])
    return out


class TestMalformedFiles:
    """Every malformed input file ends in exit code 3 with no traceback."""

    COMMANDS = {
        "plan": ["probe", "--plan"],
        "dataset": ["extract", "--dataset"],
        "blocks": ["extract", "--dataset"],
        "archive": ["synthesize", "--archive"],
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_code_3(self, case, tiny_files, tmp_path, capsys):
        kind, mutate = MALFORMED[case]
        doc = read_json(tiny_files / f"{kind}.json")
        mutate(doc)
        path = tmp_path / f"{kind}.json"
        write_json(path, doc)
        assert main([*self.COMMANDS[kind], str(path),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert os.listdir(tmp_path) == [path.name]  # nothing written
        with pytest.raises(FormatError):
            {"plan": load_plan, "dataset": load_dataset,
             "blocks": load_dataset, "archive": load_archive}[kind](path)

    @pytest.mark.parametrize("command", ["synthesize", "validate"])
    def test_unfreezable_archive_exit_code_3(self, command, tiny_files,
                                             tmp_path, capsys):
        # a well-formed archive whose order-3 grid holds no samples loads,
        # but cannot be frozen for synthesis
        doc = read_json(tiny_files / "archive.json")
        grid = doc["grids"]["3"]
        grid["n_points"] = 0
        for key, dtype in (("coords_b64", "<i8"), ("sums_b64", "<c16"),
                           ("counts_b64", "<i8")):
            grid[key] = encode_array(np.zeros(0, dtype), dtype)
        path = tmp_path / "archive.json"
        write_json(path, doc)
        assert load_archive(path).grid(3).n_points == 0
        assert main([command, "--archive", str(path),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: order-3 grid has no samples")
        assert "Traceback" not in err

    def test_truncation_below_one_is_input_error(self, tiny_files, tmp_path,
                                                 capsys):
        assert main(["extract", "--dataset", str(tiny_files / "dataset.json"),
                     "--truncation", "0", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: truncation") and "Traceback" not in err

    def test_unmodified_files_load(self, tiny_files):
        load_plan(tiny_files / "plan.json")
        load_dataset(tiny_files / "dataset.json")
        load_dataset(tiny_files / "blocks.json")
        load_archive(tiny_files / "archive.json")

    @pytest.mark.parametrize("kind", ["dataset", "blocks"])
    def test_non_finite_message_names_entry(self, kind, tiny_files, tmp_path):
        ds = load_dataset(tiny_files / "dataset.json")
        key = _index_key(ds.indices[3])
        doc = read_json(tiny_files / f"{kind}.json")
        if kind == "dataset":
            at = np.ravel_multi_index((1, 2, 3), ds.phasors.shape)
            _phasor_entry(complex(0.5, np.inf), at)(doc)
        else:
            doc["lsop_blocks"][1 * 12 + 2]["B"][key] = [0.5, float("inf")]
        write_json(tmp_path / "ds.json", doc)
        with pytest.raises(FormatError, match=re.escape(
                f"non-finite phasor {key} in block (triplet 1, amplitude 2)")):
            load_dataset(tmp_path / "ds.json")

    def test_index_arity_checked_in_memory(self):
        ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
        indices = ds.indices[:-1] + ((1, 0),)
        with pytest.raises(ValueError, match=r"index \[1, 0\] has 2 entries "
                                             r"for the plan's 3 tones"):
            SpectralDataset(plan=ds.plan, indices=indices, phasors=ds.phasors)


@pytest.fixture
def synth_calls(monkeypatch):
    """The order of every synthesize_order call, direct or through
    synthesize_total."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return synthesize_order(*args, **kwargs)

    monkeypatch.setattr(volkit.cli, "synthesize_order", counted)
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
    assert main(["extract", "--dataset", str(out / "dataset.json"),
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
        assert main(["extract", "--dataset", f"{out}/dataset.json",
                     "--out", out]) == 0
        assert main(["synthesize", "--archive", f"{out}/archive.json",
                     "--pulse", "1.0,1e-9,5e-9,1e-9", "--out", out]) == 0
        csv = (tmp_path / "waveform.csv").read_text().splitlines()
        assert csv[0] == "t,y1,y2,y3,y_total"
        assert len(csv) == 4097
        # strict threshold fails (exit 2), generous threshold passes (exit 0)
        assert main(["validate", "--archive", f"{out}/archive.json",
                     "--system", "benchmark", "--total-nrmse-limit", "1e-9",
                     "--out", out]) == 2
        assert main(["validate", "--archive", f"{out}/archive.json",
                     "--system", "benchmark", "--total-nrmse-limit", "1.0",
                     "--out", out]) == 0
        report = read_json(tmp_path / "validation_report.json")
        assert report["checks"]["h1_vs_oracle"]["ok"]
        assert report["time_domain"]["linear_only_nrmse"] > \
            report["time_domain"]["total_nrmse"]

    def test_probe_reports_samples_per_record(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--out", out]) == 0
        for extra, n in (([], 2048), (["--samples-per-record", "4096"], 4096)):
            capsys.readouterr()
            assert main(["probe", "--plan", f"{out}/plan.json", "--system",
                         "benchmark", "--out", out, *extra]) == 0
            line = capsys.readouterr().out
            assert line.endswith(f", {n} samples per record\n")
            assert load_dataset(f"{out}/dataset.json").capture \
                .samples_per_record == n

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
        assert main(["validate", "--archive", str(amp_chain / "archive.json"),
                     "--system", "amplifier", "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "validation_report.json")
        assert report["time_domain"]["total_nrmse"] <= 0.10
        assert report["checks"]["zero_kernel_leakage"]["ok"]
        archive = load_archive(amp_chain / "archive.json")
        assert {n: v["n_checked"]
                for n, v in report["kernel_error_table"].items()} == {
            str(n): grid.n_points for n, grid in archive.grids.items()}

    def test_validate_passes_on_linear_system(self, tmp_path):
        # its orders 2 and 3 are exactly zero: judged by the leakage check
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--out", out]) == 0
        assert main(["probe", "--plan", f"{out}/plan.json",
                     "--system", "benchmark-linear", "--out", out]) == 0
        assert main(["extract", "--dataset", f"{out}/dataset.json",
                     "--out", out]) == 0
        # the zero phasors of orders 2 and 3 hold only rounding noise
        extraction = read_json(tmp_path / "extraction_report.json")
        assert extraction["warnings"] == []
        assert extraction["max_relative_residual"] <= RESIDUAL_TOL
        assert main(["validate", "--archive", f"{out}/archive.json",
                     "--system", "benchmark-linear", "--out", out]) == 0
        checks = read_json(tmp_path / "validation_report.json")["checks"]
        assert checks["h2_h3_vs_oracle"]["value"] == 0.0
        assert checks["zero_kernel_leakage"]["value"] <= 1e-12

    def test_validate_fails_on_even_order_leakage(self, amp_chain, tmp_path):
        archive = load_archive(amp_chain / "archive.json")
        odd_peak = max(abs(v) for n in (1, 3)
                       for _, v in archive.grid(n).items())
        h2 = archive.grid(2)
        h2.sums[0] = 1e-2 * odd_peak * h2.counts[0]
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_validate_step_is_input_error(self, tiny_files,
                                                   tmp_path, capsys,
                                                   synth_calls):
        # RK4 at 4 ns on the benchmark system grows past the blow-up limit,
        # which the reference run finds before any synthesis
        assert main(["validate", "--archive", str(tiny_files / "archive.json"),
                     "--system", "benchmark", "--dt-s", "4e-9",
                     "--period-s", "2e-7", "--duration-s", "1e-7",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state magnitude")
        assert "Traceback" not in err
        assert synth_calls == []

    def test_validate_synthesizes_each_order_twice(self, tiny_files,
                                                   tmp_path, synth_calls):
        # the full-scale responses come from the one synthesize_total call
        assert main(["validate", "--archive", str(tiny_files / "archive.json"),
                     "--system", "benchmark", "--total-nrmse-limit", "1.0",
                     "--out", str(tmp_path)]) == 0
        assert sorted(synth_calls) == [1, 1, 2, 2, 3, 3]

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
            assert main(["extract", "--dataset", f"{out}/dataset.json",
                         "--out", str(out)]) == 0
        for name in ("plan.json", "dataset.json", "archive.json"):
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
        for name in ("plan.json", "dataset.json"):
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
    """The array layout save_dataset writes and the per-block layout load
    to the same dataset."""

    def test_layouts_agree_at_scale(self, tmp_path):
        ds = _exact_cascade_dataset(8, 7)
        ds.phasors[100, 5, ds.index_position((1, 1, -1))] = np.nan
        save_dataset(tmp_path / "array.json", ds)
        save_blocks(tmp_path / "blocks.json", ds)
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
                            ("archive.json", "extraction_report.json")])
        assert outputs[0] == outputs[1]
        assert read_json(tmp_path / "out-array" /
                         "extraction_report.json")["n_failures"] == 1

    def test_cli_extract_same_from_either_layout(self, tmp_path):
        out = str(tmp_path)
        assert main(["plan", "--points-per-axis", "3", "--seed", "7",
                     "--out", out]) == 0
        assert main(["probe", "--plan", f"{out}/plan.json",
                     "--system", "benchmark", "--out", out]) == 0
        assert "phasors_b64" in read_json(tmp_path / "dataset.json")
        ds = load_dataset(tmp_path / "dataset.json")
        save_blocks(tmp_path / "blocks.json", ds)
        outputs = []
        for name in ("dataset", "blocks"):
            sub = tmp_path / f"out-{name}"
            assert main(["extract", "--dataset", f"{out}/{name}.json",
                         "--out", str(sub)]) == 0
            outputs.append([(sub / f).read_bytes() for f in
                            ("archive.json", "extraction_report.json")])
        assert outputs[0] == outputs[1]


B64_CHARS = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
             "= !")
RETYPED = (None, 0, -1, 2.5, float("nan"), float("inf"), "x", [], {}, True)


def _mutate(data, doc):
    """Apply one drawn mutation to a dataset document in either layout;
    every draw is valid for the document by construction."""
    draw = data.draw

    def pick(n):
        return draw(st.integers(min_value=0, max_value=n - 1))

    blocks = doc.get("lsop_blocks")
    block = blocks[pick(len(blocks))] if blocks else None
    kind = draw(st.sampled_from(["key", "phasor", "id"] if blocks
                                else ["key", "truncate", "flip", "entry"]))
    if kind == "key":
        owner = draw(st.sampled_from(
            [o for o in (doc, doc["plan"], block) if o is not None]))
        key = draw(st.sampled_from(sorted(owner)))
        if draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(RETYPED))
    elif kind == "truncate":
        blob = doc["phasors_b64"]
        doc["phasors_b64"] = blob[:pick(len(blob))]
    elif kind == "flip":
        blob, at = doc["phasors_b64"], pick(len(doc["phasors_b64"]))
        doc["phasors_b64"] = (blob[:at] + draw(st.sampled_from(B64_CHARS))
                              + blob[at + 1:])
    elif kind == "id":
        block[draw(st.sampled_from(["triplet_id", "amp_id"]))] = draw(
            st.integers(min_value=-2, max_value=20))
    else:
        value = complex(draw(st.floats()), draw(st.floats()))
        if kind == "entry":
            n = len(decode_array(doc["phasors_b64"], "<c16"))
            _phasor_entry(value, pick(n))(doc)
        else:
            key = draw(st.sampled_from(sorted(block["B"])))
            block["B"][key] = [value.real, value.imag]


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mutate")
    ds = analytic_dataset(CASCADE_KERNEL, tiny_plan(), 3)
    save_dataset(out / "dataset.json", ds)
    save_blocks(out / "blocks.json", ds)
    return out


@pytest.mark.parametrize("layout", ["dataset", "blocks"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_dataset_loads_or_raises_format_error(layout, mutation_dir,
                                                      data):
    doc = json.loads((mutation_dir / f"{layout}.json").read_text())
    _mutate(data, doc)
    path = mutation_dir / "mutated.json"
    path.write_text(json.dumps(doc))
    try:
        values = load_dataset(path).phasors
    except FormatError:
        return
    assert (np.isfinite(values)
            | (np.isnan(values.real) & np.isnan(values.imag))).all()
