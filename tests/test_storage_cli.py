import json
import os
from pathlib import Path

import numpy as np
import pytest

from volkit.cli import main
from volkit.kernels import KernelArchive, KernelGrid
from volkit.probing import analytic_dataset
from volkit.storage import (
    FormatError,
    decode_array,
    encode_array,
    load_archive,
    load_dataset,
    load_plan,
    read_json,
    save_archive,
    save_dataset,
    save_plan,
    write_json,
)
from volkit.sweeps import SweepPlan, standard_sweep_plan
from volkit.systems import MultiplierCascade, oracle_fn
from volkit.extraction import extract

GOLDEN = Path(__file__).parent / "golden" / "enumeration_3_3.json"


def tiny_plan():
    return standard_sweep_plan(points_per_axis=2, plan_id="tiny")


class TestRoundTrips:
    def test_plan_round_trip_exact(self, tmp_path):
        plan = tiny_plan()
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        back = load_plan(path)
        assert back == plan

    def test_dataset_round_trip_exact(self, tmp_path):
        plan = tiny_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
        path = tmp_path / "ds.json"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.indices == ds.indices
        np.testing.assert_array_equal(back.phasors, ds.phasors)
        assert back.plan == plan

    def test_archive_round_trip_exact(self, tmp_path):
        plan = tiny_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
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
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
        path = tmp_path / "ds.json"
        save_dataset(path, ds)
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


def _grid_field(key, fn):
    def mutate(doc):
        grid = doc["grids"]["2"]
        arr = decode_array(grid[key], "<i8").copy()
        grid[key] = encode_array(fn(arr), "<i8")
    return mutate


def _grid_points_plus_one(doc):
    doc["grids"]["3"]["n_points"] += 1


def _off_lattice(arr):
    arr[0] += 1
    return arr


def _zero_count(arr):
    arr[-1] = 0
    return arr


MALFORMED = {
    "dataset without plan": ("dataset", _drop_plan),
    "dataset unknown index key": ("dataset", _unknown_index_key),
    "dataset triplet_id too large": ("dataset",
                                     _block_field("triplet_id", 10**6)),
    "dataset negative triplet_id": ("dataset", _block_field("triplet_id", -1)),
    "dataset amp_id too large": ("dataset", _block_field("amp_id", 99)),
    "dataset block without B": ("dataset", _block_field("B", None)),
    "dataset duplicate block": ("dataset", _duplicate_block),
    "dataset non-finite phasor": ("dataset", _non_finite_phasor),
    "plan without schedule": ("plan", _plan_drop_schedule),
    "archive n_points mismatch": ("archive", _grid_points_plus_one),
    "archive coordinate off lattice": ("archive",
                                       _grid_field("coords_b64", _off_lattice)),
    "archive count below one": ("archive",
                                _grid_field("counts_b64", _zero_count)),
    "archive truncated counts": ("archive",
                                 _grid_field("counts_b64", lambda a: a[:-1])),
}


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    plan = tiny_plan()
    ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
    save_plan(out / "plan.json", plan)
    save_dataset(out / "dataset.json", ds)
    save_archive(out / "archive.json", extract(ds, plan)[0])
    return out


class TestMalformedFiles:
    """Every malformed input file ends in exit code 3 with no traceback."""

    COMMANDS = {
        "plan": ["probe", "--plan"],
        "dataset": ["extract", "--dataset"],
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
        with pytest.raises(FormatError):
            {"plan": load_plan, "dataset": load_dataset,
             "archive": load_archive}[kind](path)

    def test_unmodified_files_load(self, tiny_files):
        load_plan(tiny_files / "plan.json")
        load_dataset(tiny_files / "dataset.json")
        load_archive(tiny_files / "archive.json")


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
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
        save_dataset(tmp_path / "ds.json", ds)
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
                                                   tmp_path, capsys):
        # RK4 at 4 ns on the benchmark system grows past the blow-up limit
        assert main(["validate", "--archive", str(tiny_files / "archive.json"),
                     "--system", "benchmark", "--dt-s", "4e-9",
                     "--period-s", "2e-7", "--duration-s", "1e-7",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state magnitude")
        assert "Traceback" not in err

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
