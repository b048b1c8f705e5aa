import argparse
import copy
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fuelgap
from fuelgap.cli import RP_SURE_OPTIONS, _parse_year_bins, build_parser, main
from fuelgap.criteria import CriteriaInput, score_criteria
from fuelgap.data import DEFAULT_YEAR_BINS, compute_gaps, parse_raw
from fuelgap.halton import HaltonConfig
from fuelgap.msl import fit_rp_sure
from fuelgap.sure import DesignMatrices, ParameterLayout, fgls_fit, layout_fit
from test_source import subcommand_parsers
from test_sure import SINGULAR_RESIDUALS, proportional_data

TRUTH = {
    "n": 200, "seed": 11,
    "error": {"sigma1": 0.1, "sigma2": 0.1, "rho": 0.5},
    "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0, "sd": 1},
        {"name": "x2", "kind": "normal", "mean": 0, "sd": 1},
    ],
    "equations": [
        {"name": "vehicle_1", "intercept": 0.88,
         "terms": [{"column": "x1", "coef": -0.03, "sigma": 0.05}]},
        {"name": "vehicle_2", "intercept": 0.92,
         "terms": [{"column": "x2", "coef": 0.02, "sigma": 0.06}]},
    ],
}

SPEC = {
    "equations": [
        {"name": "vehicle_1", "intercept": True,
         "terms": [{"column": "x1", "kind": "random-normal"}]},
        {"name": "vehicle_2", "intercept": True,
         "terms": [{"column": "x2", "kind": "random-normal"}]},
    ],
}

SHARED_SPEC = {
    "equations": [
        {"name": "vehicle_1", "intercept": True, "terms": [{"column": "x1"}]},
        {"name": "vehicle_2", "intercept": True, "terms": [{"column": "x1"}]},
    ],
}


GARAGE_HEADER = ("garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
                 "model_year_1,model_year_2,us_division,x\n")

# marks an entry that `mutated` removes
MISSING = object()


def mutated(payload, keys, value):
    """A deep copy of payload with the entry at keys set to value, or removed."""
    payload = copy.deepcopy(payload)
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return payload


def run_cli(*argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def truth_file(tmp_path):
    return write_json(tmp_path / "truth.json", TRUTH)


@pytest.fixture()
def spec_file(tmp_path):
    return write_json(tmp_path / "spec.json", SPEC)


@pytest.fixture()
def data_file(tmp_path, truth_file):
    out = tmp_path / "data.csv"
    assert run_cli("simulate", "--truth", truth_file, "--out", str(out)) == 0
    return str(out)


class TestSimulate:
    def test_same_seed_identical_bytes(self, tmp_path, truth_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--truth", truth_file, "--out", str(a),
                       "--n", "10", "--seed", "7") == 0
        assert run_cli("simulate", "--truth", truth_file, "--out", str(b),
                       "--n", "10", "--seed", "7") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_is_usage_error(self, tmp_path, truth_file):
        assert run_cli("simulate", "--truth", truth_file,
                       "--out", str(tmp_path / "x.csv"), "--n", "0") == 2

    def test_seed_required_when_absent(self, tmp_path):
        truth = dict(TRUTH)
        truth.pop("seed")
        path = write_json(tmp_path / "t.json", truth)
        assert run_cli("simulate", "--truth", path,
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_noiseless_truth_writes_linear_predictor(self, tmp_path):
        truth = {
            "n": 6, "seed": 1,
            "error": {"sigma1": 1e-300, "sigma2": 1e-300, "rho": 0.0},
            "covariates": [{"name": "x1", "kind": "uniform", "low": 0.0, "high": 1.0}],
            "equations": [
                {"name": "vehicle_1", "intercept": 0.8,
                 "terms": [{"column": "x1", "coef": 0.1}]},
                {"name": "vehicle_2", "intercept": 0.9, "terms": []},
            ],
        }
        path = write_json(tmp_path / "t.json", truth)
        out = tmp_path / "d.csv"
        assert run_cli("simulate", "--truth", path, "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            y1, x1 = float(cells[1]), float(cells[8])
            assert y1 == pytest.approx(0.8 + 0.1 * x1, abs=1e-12)
            assert float(cells[3]) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("seed,flags", [
        pytest.param(11, ["--seed", "-1"], id="flag-negative"),
        pytest.param(-3, [], id="file-negative"),
        pytest.param(2 ** 128, [], id="file-too-large"),
    ])
    def test_seed_out_of_range_is_exit_2(self, tmp_path, seed, flags, capsys):
        path = write_json(tmp_path / "t.json", dict(TRUTH, seed=seed))
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--truth", path, "--out", str(out), *flags) == 2
        assert "seed must be in [0, 2**128)" in capsys.readouterr().err
        assert list(tmp_path.glob("x.csv*")) == []

    @pytest.mark.parametrize("keys,value,message", [
        pytest.param(["n"], MISSING, "--n is required when the truth file carries none",
                     id="no-n"),
        pytest.param(["n"], 0, "n must be >= 1", id="n-zero"),
        pytest.param(["covariates", 0, "kind"], "poisson",
                     "unknown covariate kind 'poisson' for 'x1'", id="covariate-kind"),
        pytest.param(["covariates", 0], {"name": "x1", "kind": "bernoulli", "p": 1.5},
                     "covariate 'x1': bernoulli p must be in [0, 1]", id="bernoulli-p"),
        pytest.param(["equations", 0, "terms", 0, "sigma"], -0.05,
                     "term 'x1': sigma must be >= 0", id="negative-sigma"),
        pytest.param(["equations", 1], MISSING, "exactly 2 equations are required",
                     id="one-equation"),
        pytest.param(["equations"], [*TRUTH["equations"], {"name": "v3", "intercept": 0.9}],
                     "exactly 2 equations are required", id="three-equations"),
        pytest.param(["equations", 1], {"name": "vehicle_2"},
                     "equation 'vehicle_2' has no design columns", id="empty-equation"),
        pytest.param(["equations", 1, "name"], "vehicle_1", "equation names must differ",
                     id="same-names"),
        pytest.param(["equations", 0, "terms"], [{"column": "x1", "coef": 0.1}] * 2,
                     "equation 'vehicle_1' lists 'x1' twice", id="column-twice"),
        pytest.param(["error", "sigma1"], 0, "error standard deviations must be positive",
                     id="zero-sd"),
        pytest.param(["covariates", 1, "name"], "x1", "covariate names must be distinct",
                     id="repeated-covariate"),
    ])
    def test_refused_truth_is_exit_2(self, tmp_path, keys, value, message, capsys):
        path = write_json(tmp_path / "t.json", mutated(TRUTH, keys, value))
        assert run_cli("simulate", "--truth", path, "--out", str(tmp_path / "x.csv")) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("x.csv*")) == []

    def test_coefficient_draws_sidecar_is_an_output(self, tmp_path, truth_file):
        out, draws = tmp_path / "d.csv", tmp_path / "draws.csv"
        assert run_cli("simulate", "--truth", truth_file, "--out", str(out),
                       "--coef-draws", str(draws)) == 0
        lines = draws.read_text().splitlines()
        assert lines[0] == "row,vehicle_1:x1,vehicle_2:x2" and len(lines) == 1 + TRUTH["n"]
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert list(manifest["outputs"]) == [str(out), str(draws)]

    def test_invalid_truth_is_exit_2(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"n": 3, "seed": 1})
        assert run_cli("simulate", "--truth", path, "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("truth,flags", [
        pytest.param(5, [], id="number"),
        pytest.param([1], ["--n", "5"], id="list-with-n"),
    ])
    def test_non_object_truth_is_exit_2(self, tmp_path, truth, flags, capsys):
        path = write_json(tmp_path / "bad.json", truth)
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--truth", path, "--out", str(out), *flags) == 2
        assert f"truth file {path} must be an object, got" in capsys.readouterr().err
        assert list(tmp_path.glob("x.csv*")) == []


class TestPrepare:
    def test_valid_input_writes_outputs(self, tmp_path, data_file):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out)) == 0
        assert out.exists()
        assert (tmp_path / "prepared.report.json").exists()
        assert (tmp_path / "prepared.csv.manifest.json").exists()

    def test_trim_sd_zero_usage_error(self, tmp_path, data_file):
        for trim_sd in ("0", "nan", "inf"):
            assert run_cli("prepare", "--input", data_file,
                           "--out", str(tmp_path / "p.csv"), "--trim-sd", trim_sd) == 2
            assert list(tmp_path.glob("p.*")) == []

    @pytest.mark.parametrize("flags,message", [
        pytest.param(["--trim-sd", "abc"], "--trim-sd expects a number, got 'abc'",
                     id="trim-sd"),
        pytest.param(["--mpg-columns", "x"], "--mpg-columns expects 'user_base,epa_base'",
                     id="mpg-columns"),
        pytest.param(["--group-by", ","], "at least one grouping key is required",
                     id="group-by-blank"),
    ])
    def test_refused_option_is_exit_2(self, tmp_path, data_file, flags, message, capsys):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out), *flags) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("prepared*")) == []

    @pytest.mark.parametrize("text,message", [
        pytest.param("", "row 0: input is empty (no header row)", id="empty"),
        pytest.param(GARAGE_HEADER + "g1,,25,22,25,1999,2004,Pacific,0\n",
                     "row 1: missing required numeric field 'my_mpg_1'", id="blank-mpg"),
    ])
    def test_refused_data_is_exit_2(self, tmp_path, text, message, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(text)
        assert run_cli("prepare", "--input", str(raw), "--out", str(tmp_path / "p.csv")) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("p.*")) == []

    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("prepare", "--input", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "p.csv")) == 4

    def test_planted_outlier_counted_in_report(self, tmp_path):
        rng = np.random.default_rng(2)
        lines = ["garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
                 "model_year_1,model_year_2,us_division"]
        for i, (g1, g2) in enumerate(zip(0.85 + 0.02 * rng.uniform(-1, 1, 200),
                                         0.84 + 0.02 * rng.uniform(-1, 1, 200))):
            lines.append(f"g{i},{g1 * 25},25,{g2 * 25},25,1999,2004,Pacific")
        lines.append("planted,60.0,25,21.0,25,1999,2004,Pacific")
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", str(raw), "--out", str(out)) == 0
        report = json.loads((tmp_path / "prepared.report.json").read_text())
        assert report["n_removed"] == 1
        assert report["removed_ids"] == ["planted"]
        assert report["n_input"] == 201

    @pytest.mark.parametrize("year", ["inf", "1e400", "late"])
    def test_overflowing_model_year_is_exit_2(self, tmp_path, capsys, year):
        raw = tmp_path / "raw.csv"
        raw.write_text("garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
                       "model_year_1,model_year_2,us_division\n"
                       f"g1,20,25,22,25,{year},2004,Pacific\n")
        assert run_cli("prepare", "--input", str(raw),
                       "--out", str(tmp_path / "p.csv")) == 2
        assert "row 1: field 'model_year_1' is not an integer" in capsys.readouterr().err

    def test_every_row_trimmed_keeps_columns_and_reports_null_means(self, tmp_path):
        header = ("garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
                  "model_year_1,model_year_2,us_division,urban")
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join([header, "g1,20,25,22,25,1999,2004,Pacific,yes",
                                  "g2,21,25,22,25,1999,2004,Pacific,no",
                                  "g3,23,25,22,25,1999,2004,Pacific,yes"]) + "\n")
        out = tmp_path / "prepared.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("prepare", "--input", str(raw), "--out", str(out),
                           "--trim-sd", "0.1") == 0
        assert out.read_text().splitlines() == [header + ",gap_1,gap_2"]
        report = json.loads((tmp_path / "prepared.report.json").read_text())
        assert (report["n_input"], report["n_kept"]) == (3, 0)
        assert report["mean_gap"] == [None, None]
        assert report["mean_mpg_shortfall"] == [None, None]
        assert report["gap_correlation"] is None

    def test_covariate_named_like_a_prepared_column_is_exit_2(self, tmp_path, capsys):
        # label ratings as the denominator leave the test-cycle columns as
        # covariates, whose names the prepared CSV already uses
        raw = tmp_path / "raw.csv"
        raw.write_text("garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,model_year_1,"
                       "model_year_2,us_division,epa_label_1,epa_label_2\n"
                       "g1,20,25,22,25,1999,2004,Pacific,20,22\n"
                       "g2,21,25,23,25,1999,2004,Pacific,21,23\n"
                       "g3,22,25,21,25,1999,2004,Pacific,22,21\n")
        out = tmp_path / "p.csv"
        assert run_cli("prepare", "--input", str(raw), "--out", str(out),
                       "--mpg-columns", "my_mpg,epa_label") == 2
        assert "['epa_mpg_1', 'epa_mpg_2']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["1990", "1990-x", "2000-1990", "1990-2005,2000-2010"])
    def test_malformed_year_bins_is_exit_2(self, tmp_path, data_file, bins, capsys):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out),
                       "--group-by", "model_year_bin_1", "--year-bins", bins) == 2
        assert "--year-bins" in capsys.readouterr().err
        assert list(tmp_path.glob("prepared*")) == []

    @pytest.mark.parametrize("flags", [
        pytest.param(["--groups-out", "groups.csv"], id="groups-out"),
        pytest.param(["--year-bins", "1984-1999,2000-2012"], id="year-bins"),
        pytest.param(["--group-by", "us_division", "--year-bins", "1984-1999,2000-2012"],
                     id="year-bins-without-a-year-key"),
    ])
    def test_flag_without_its_group_key_is_exit_2(self, tmp_path, data_file, flags, capsys):
        # each flag alone does nothing, so it is a usage error, not a no-op
        out = tmp_path / "prepared.csv"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert run_cli("prepare", "--input", data_file, "--out", str(out), *flags) == 2
        assert flags[-2] in capsys.readouterr().err
        assert list(tmp_path.glob("prepared*")) == []
        assert not (tmp_path / "groups.csv").exists()

    def test_prepared_csv_prepares_again_to_the_same_bytes(self, tmp_path, data_file):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(first)) == 0
        assert run_cli("prepare", "--input", str(first), "--out", str(second),
                       "--trim-sd", "100") == 0
        assert second.read_bytes() == first.read_bytes()

    def test_unknown_group_key_writes_nothing(self, tmp_path, data_file, capsys):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out),
                       "--group-by", "us_division,no_such") == 2
        assert "'no_such' not found" in capsys.readouterr().err
        assert list(tmp_path.glob("prepared*")) == []

    @pytest.mark.parametrize("keys,message", [
        ("us_division,us_division", "--group-by repeats keys ['us_division']"),
        ("model_year_bin_1,n,model_year_bin_1,n",
         "--group-by repeats keys ['model_year_bin_1', 'n']"),
        ("n", "--group-by keys ['n'] would repeat"),
        ("us_division,mean_gap_1", "--group-by keys ['mean_gap_1'] would repeat"),
        ("mean_gap_2,n", "--group-by keys ['mean_gap_2', 'n'] would repeat"),
    ], ids=["repeated", "two-repeated", "n", "mean_gap_1", "mean_gap_2-and-n"])
    def test_group_key_that_repeats_a_groups_column_writes_nothing(self, tmp_path, keys,
                                                                   message, capsys):
        # covariates named like the summary columns: grouping by one of them
        # would give the groups CSV a header that parse_raw refuses
        raw = tmp_path / "raw.csv"
        raw.write_text("garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,model_year_1,"
                       "model_year_2,us_division,n,mean_gap_1,mean_gap_2\n"
                       + "".join(f"g{i},2{i},25,2{i},25,1999,2004,Pacific,a,b,c\n"
                                 for i in range(4)))
        out, groups = tmp_path / "prepared.csv", tmp_path / "groups.csv"
        assert run_cli("prepare", "--input", str(raw), "--out", str(out),
                       "--group-by", keys, "--groups-out", str(groups)) == 2
        err = capsys.readouterr().err
        assert message in err
        if "would repeat" in message:
            assert "the summary columns ['n', 'mean_gap_1', 'mean_gap_2'] of the groups " \
                   "CSV" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.csv"]

    def test_group_summary_output(self, tmp_path, data_file):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out),
                       "--group-by", "us_division,model_year_bin_1") == 0
        groups = (tmp_path / "prepared.groups.csv").read_text().splitlines()
        assert groups[0] == "us_division,model_year_bin_1,n,mean_gap_1,mean_gap_2"
        assert len(groups) == 2  # one synthetic division x one year bin

    def test_year_bins_key_the_groups(self, tmp_path, data_file):
        # the simulated garages pair model years 2000 and 2001
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out),
                       "--group-by", "model_year_bin_1,model_year_bin_2",
                       "--year-bins", "1990-2000,2001-2010") == 0
        groups = (tmp_path / "prepared.groups.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in groups[1:]] == [["1990-2000", "2001-2010"]]

    def test_identical_rerun_reproduces_output_hashes(self, tmp_path, data_file):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out_a)) == 0
        assert run_cli("prepare", "--input", data_file, "--out", str(out_b)) == 0
        man_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        man_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert man_a["inputs"] == man_b["inputs"]
        assert list(man_a["outputs"].values()) == list(man_b["outputs"].values())


# two garages, two columns per equation: vehicle 1 gaps 1.0/2.0, vehicle 2
# gaps 0.84/1.2; each equation interpolates its garages
TWO_GARAGES = (GARAGE_HEADER + "a,25,25,21,25,1999,2004,Pacific,0\n"
               "b,50,25,30,25,1999,2004,Pacific,1\n")
# four garages whose vehicle 2 gaps are all 0.9: with an intercept alone its
# OLS residuals are exactly zero
ZERO_RESIDUALS = (GARAGE_HEADER + "".join(
    f"{g},{m},25,18,20,1999,2004,Pacific,{x}\n"
    for g, m, x in (("a", 25, 0), ("b", 50, 1), ("c", 30, 0), ("d", 20, 1))))
# six garages whose vehicle 1 gaps are 0.9 + 0.1 x up to rounding: on the
# columns [1, x] its OLS residual variance is rounding noise (about 1e-32)
LINEAR_UP_TO_ROUNDING = (GARAGE_HEADER + "".join(
    f"{g},{22.5 + 2.5 * x},25,{m},25,1999,2004,Pacific,{x}\n"
    for x, (g, m) in enumerate(zip("abcdef", (21, 30, 24, 19, 26, 23)))))
# forty garages of random MPG figures, x = +/-1
_rng = np.random.default_rng(3)
FORTY_GARAGES = GARAGE_HEADER + "".join(
    f"g{i},{m1:.3f},25,{m2:.3f},25,1999,2004,Pacific,{s}\n"
    for i, (m1, m2, s) in enumerate(zip(_rng.uniform(20, 30, 40), _rng.uniform(20, 30, 40),
                                        _rng.choice([-1, 1], 40))))


def proportional_garages(seed: int) -> str:
    """test_sure.proportional_data at c = 3 as a garage CSV: an EPA figure of
    1 makes each gap read back as written, so the residuals stay exactly
    proportional."""
    x, y1, y2 = proportional_data(seed, 3.0)
    return GARAGE_HEADER + "".join(
        f"g{i},{a!r},1,{b!r},1,1999,2004,Pacific,{t!r}\n"
        for i, (a, b, t) in enumerate(zip(y1.tolist(), y2.tolist(), x[:, 1].tolist())))


X_SPEC = {"equations": [{"name": name, "intercept": True, "terms": [{"column": "x"}]}
                        for name in ("vehicle_1", "vehicle_2")]}
ESTIMATOR_FLAGS = [pytest.param(["--estimator", "ols"], id="ols"),
                   pytest.param(["--estimator", "sure"], id="sure"),
                   pytest.param(["--estimator", "rp-sure"], id="rp-sure")]


def refused_fit(tmp_path, data: str, spec: dict, flags: list[str], capsys) -> str:
    """Run fit on a data text and spec; check it exits 2 and writes nothing,
    and return its error message."""
    raw = tmp_path / "data.csv"
    raw.write_text(data)
    out = tmp_path / "fit.json"
    assert run_cli("fit", "--data", str(raw), "--spec", write_json(tmp_path / "spec.json", spec),
                   "--out", str(out), *flags) == 2
    assert list(tmp_path.glob("fit.json*")) == []
    return capsys.readouterr().err


RP_SURE_FLAGS = [pytest.param(["--draws", "7"], id="draws"),
                 pytest.param(["--burn", "3"], id="burn"),
                 pytest.param(["--bases", "5,7"], id="bases"),
                 pytest.param(["--threads", "2"], id="threads"),
                 pytest.param(["--max-iterations", "9"], id="max-iterations")]


def refused_before_the_data(tmp_path, spec: dict, flags: list[str], capsys) -> str:
    """Run fit on a data file that does not exist; check it exits 2, not the
    4 of an unreadable input, so the refusal came before the data was read,
    and writes nothing; return its error message."""
    out = tmp_path / "fit.json"
    assert run_cli("fit", "--data", str(tmp_path / "missing.csv"), "--spec",
                   write_json(tmp_path / "spec.json", spec), "--out", str(out), *flags) == 2
    assert list(tmp_path.glob("fit.json*")) == []
    return capsys.readouterr().err


class TestFit:
    @pytest.mark.parametrize("flags", ESTIMATOR_FLAGS)
    def test_no_residual_degrees_of_freedom_is_exit_2(self, tmp_path, flags, capsys):
        # n = k per equation: the fit interpolates, so every estimator
        # refuses it with one message
        spec = {"equations": [{"name": name, "intercept": True, "terms": [{"column": "x"}]}
                              for name in ("vehicle_1", "vehicle_2")]}
        err = refused_fit(tmp_path, TWO_GARAGES, spec, flags, capsys)
        assert "equation vehicle_1 is not identified: no residual variance is left " \
               "(n=2 garages, k=2 columns)" in err

    @pytest.mark.parametrize("flags", ESTIMATOR_FLAGS)
    def test_zero_residuals_are_exit_2(self, tmp_path, flags, capsys):
        spec = {"equations": [{"name": "vehicle_1", "intercept": True,
                               "terms": [{"column": "x"}]},
                              {"name": "vehicle_2", "intercept": True, "terms": []}]}
        err = refused_fit(tmp_path, ZERO_RESIDUALS, spec, flags, capsys)
        assert "equation vehicle_2 is not identified: no residual variance is left " \
               "(n=4 garages, k=1 columns)" in err

    @pytest.mark.parametrize("flags", ESTIMATOR_FLAGS)
    def test_residuals_zero_up_to_rounding_are_exit_2(self, tmp_path, flags, capsys):
        spec = {"equations": [{"name": name, "intercept": True, "terms": [{"column": "x"}]}
                              for name in ("vehicle_1", "vehicle_2")]}
        err = refused_fit(tmp_path, LINEAR_UP_TO_ROUNDING, spec, flags, capsys)
        assert "equation vehicle_1 is not identified: no residual variance is left " \
               "(n=6 garages, k=2 columns)" in err

    @pytest.mark.parametrize("seed", [2, 10])
    @pytest.mark.parametrize("flags", ESTIMATOR_FLAGS[1:])
    def test_singular_residual_covariance_is_exit_2(self, tmp_path, flags, seed, capsys):
        # y2 = 3 y1 on one design: every estimator of rho refuses the data
        # with one message, whatever rounding leaves of 1 - rho^2
        err = refused_fit(tmp_path, proportional_garages(seed), X_SPEC, flags, capsys)
        assert f"{SINGULAR_RESIDUALS}\n" in err

    @pytest.mark.parametrize("seed", [2, 10])
    def test_singular_residual_covariance_still_fits_ols(self, tmp_path, seed):
        # ols estimates no rho
        raw = tmp_path / "data.csv"
        raw.write_text(proportional_garages(seed))
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", str(raw), "--spec", write_json(tmp_path / "spec.json",
                       X_SPEC), "--out", str(out), "--estimator", "ols") == 0
        assert json.loads(out.read_text())["n"] == 30

    @pytest.mark.parametrize("estimator", ["sure", "rp-sure"])
    def test_strong_error_correlation_still_fits(self, tmp_path, estimator):
        truth = tmp_path / "truth.json"
        # spreads small beside the error SDs of 0.1, so the residual
        # correlation that sure estimates stays near 0.999 too
        planted = mutated(TRUTH, ["error", "rho"], 0.999)
        for eq in planted["equations"]:
            eq["terms"][0]["sigma"] = 0.005
        write_json(truth, planted)
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--truth", str(truth), "--out", str(data)) == 0
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", str(data), "--spec", write_json(tmp_path / "spec.json",
                       SPEC), "--out", str(out), "--estimator", estimator) == 0
        rho = json.loads(out.read_text())["rho"]
        assert 0.995 < rho < 1.0

    def test_unidentified_spread_is_exit_2(self, tmp_path, capsys):
        # a random +/-1 column without an intercept: x^2 = 1, so its spread
        # and the error variance move the likelihood alike
        spec = {"equations": [
            {"name": "vehicle_1", "intercept": False,
             "terms": [{"column": "x", "kind": "random-normal"}]},
            {"name": "vehicle_2", "intercept": True, "terms": []}]}
        err = refused_fit(tmp_path, FORTY_GARAGES, spec,
                          ["--estimator", "rp-sure", "--draws", "20"], capsys)
        assert "the spreads of random terms ['x'] of equation vehicle_1 are not " \
               "identified" in err

    @pytest.mark.parametrize("flags", ESTIMATOR_FLAGS)
    def test_blank_level_is_exit_2(self, tmp_path, flags, capsys):
        # a blank level matches no value, so it encodes an all-zero column,
        # which every estimator refuses by name
        spec = {"equations": [{"name": "vehicle_1", "terms": [{"column": "x", "level": ""}]},
                              {"name": "vehicle_2"}], "base_levels": {"x": "1"}}
        err = refused_fit(tmp_path, FORTY_GARAGES, spec, flags, capsys)
        assert "design matrix is rank deficient; collinear columns: ['x=']" in err

    @pytest.mark.parametrize("data,message", [
        pytest.param(FORTY_GARAGES.replace(",-1\n", ",minus one\n"),
                     "variable 'x' is declared continuous but holds non-numeric values",
                     id="non-numeric"),
        pytest.param(FORTY_GARAGES.replace(",-1\n", ",inf\n"),
                     "variable 'x' holds non-finite values", id="infinite"),
        pytest.param(GARAGE_HEADER.replace("\n", ",gap_1,gap_2\n"),
                     "cannot encode an empty table", id="header-only-prepared"),
    ])
    def test_refused_data_is_exit_2(self, tmp_path, data, message, capsys):
        spec = {"equations": [{"name": name, "terms": [{"column": "x"}]}
                              for name in ("vehicle_1", "vehicle_2")]}
        assert message in refused_fit(tmp_path, data, spec, ["--estimator", "sure"], capsys)

    def test_table_fields_as_terms(self, tmp_path):
        # model_year_1 as a dummy of one year in equation 1 (the int64 year
        # column labelled by its text) and as a continuous column in equation 2
        years = np.array([1999, 2003, 2005] * 10)
        gaps = np.random.default_rng(5).uniform(0.7, 1.1, (30, 2))
        raw = tmp_path / "data.csv"
        raw.write_text(GARAGE_HEADER + "".join(
            f"g{i},{25 * g1!r},25,{25 * g2!r},25,{year},2010,Pacific,0\n"
            for i, (year, (g1, g2)) in enumerate(zip(years.tolist(), gaps.tolist()))))
        spec = write_json(tmp_path / "spec.json", {"equations": [
            {"name": "vehicle_1", "terms": [{"column": "model_year_1", "level": "2003"}]},
            {"name": "vehicle_2", "terms": [{"column": "model_year_1"}]}],
            "base_levels": {"model_year_1": "1999"}})
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", str(raw), "--spec", spec, "--estimator", "ols",
                       "--out", str(out)) == 0
        coef1, coef2 = (eq["coef"] for eq in json.loads(out.read_text())["equations"])
        g1, g2 = compute_gaps(parse_raw(raw)).gap.T
        assert coef1["model_year_1=2003"] == pytest.approx(
            g1[years == 2003].mean() - g1[years != 2003].mean(), abs=1e-12)
        assert coef2["model_year_1"] == pytest.approx(np.polyfit(years, g2, 1)[0], abs=1e-10)

    @pytest.mark.parametrize("flags,message", [
        pytest.param(["--draws", "0"], "--draws must be >= 1", id="draws"),
        pytest.param(["--burn", "-1"], "--burn must be >= 0", id="burn"),
        pytest.param(["--threads", "0"], "--threads must be >= 1", id="threads"),
    ])
    def test_refused_option_is_exit_2(self, tmp_path, data_file, spec_file, flags, message,
                                      capsys):
        out = tmp_path / "rp.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--out", str(out), *flags) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("rp.json*")) == []

    def test_rp_with_zero_randoms_matches_sure(self, tmp_path, data_file):
        spec = write_json(tmp_path / "shared.json", SHARED_SPEC)
        sure_out = tmp_path / "sure.json"
        rp_out = tmp_path / "rp.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec,
                       "--estimator", "sure", "--out", str(sure_out)) == 0
        assert run_cli("fit", "--data", data_file, "--spec", spec,
                       "--estimator", "rp-sure", "--out", str(rp_out)) == 0
        sure = json.loads(sure_out.read_text())
        rp = json.loads(rp_out.read_text())
        for eq_s, eq_r in zip(sure["equations"], rp["equations"]):
            for name, value in eq_s["coef"].items():
                assert eq_r["coef"][name] == pytest.approx(value, abs=1e-4)
        # one model in one parameter layout, so one ICOMP
        assert sure["param_names"] == rp["param_names"]
        sure_icomp, rp_icomp = (score_criteria(CriteriaInput(
            fit["loglik"], fit["k"], fit["n"], fisher_inverse=np.array(fit["param_cov"]))).icomp
            for fit in (sure, rp))
        assert rp_icomp == pytest.approx(sure_icomp, abs=1e-6)

    def test_spec_data_mismatch_names_variable(self, tmp_path, data_file, capsys):
        spec = write_json(tmp_path / "bad.json", {
            "equations": [
                {"name": "vehicle_1", "terms": [{"column": "no_such_column"}]},
                {"name": "vehicle_2", "terms": []},
            ]})
        code = run_cli("fit", "--data", data_file, "--spec", spec,
                       "--estimator", "sure", "--out", str(tmp_path / "f.json"))
        assert code == 2
        assert "no_such_column" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["ols", "sure", "rp-sure"])
    def test_equation_without_columns_is_exit_2(self, tmp_path, data_file, estimator,
                                                capsys):
        spec = write_json(tmp_path / "empty.json", {
            "equations": [
                {"name": "v1", "intercept": False, "terms": []},
                {"name": "v2", "terms": [{"column": "x2"}]},
            ]})
        out = tmp_path / "f.json"
        code = run_cli("fit", "--data", data_file, "--spec", spec,
                       "--estimator", estimator, "--out", str(out))
        assert code == 2
        assert "'v1' has no design columns" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        pytest.param({"equations": [5, {"name": "vehicle_2"}]},
                     "equation 1 must be an object, got 5", id="equation-not-object"),
        pytest.param({"equations": [{"name": "vehicle_1", "terms": 5}, {"name": "vehicle_2"}]},
                     "'vehicle_1': 'terms' must be a list, got 5", id="terms-not-list"),
        pytest.param({"equations": [{"name": "vehicle_1", "terms": [5]}, {"name": "vehicle_2"}]},
                     "'vehicle_1': a term must be an object, got 5", id="term-not-object"),
        pytest.param({"equations": [{"name": "vehicle_1"}, {"name": "vehicle_2"}],
                      "base_levels": [1]},
                     "'base_levels' must be an object", id="base-levels-not-object"),
        pytest.param({"equations": [{"name": "vehicle_1", "intercept": "no"},
                                    {"name": "vehicle_2"}]},
                     "equation 'vehicle_1': 'intercept' must be true or false, got 'no'",
                     id="intercept-not-boolean"),
        pytest.param({"equations": [{"name": "vehicle_1",
                                     "terms": [{"column": "x1", "level": {"a": 1}}]},
                                    {"name": "vehicle_2"}],
                      "base_levels": {"x1": "0"}},
                     "equation 'vehicle_1', term {'column': 'x1', 'level': {'a': 1}}: "
                     "'level' must be a string or null, got {'a': 1}",
                     id="level-not-string"),
        pytest.param({"equations": [{"name": "vehicle_1",
                                     "terms": [{"column": "x1", "kind": "random"}]},
                                    {"name": "vehicle_2"}]},
                     "unknown coefficient kind 'random' for 'x1'", id="unknown-kind"),
        pytest.param({"equations": [{"name": "a"}, {"name": "b"}, {"name": "c"}]},
                     "exactly 2 equations are required", id="three-equations"),
        pytest.param({"equations": [{"name": "a"}]},
                     "exactly 2 equations are required", id="one-equation"),
        pytest.param({"equation": []}, "model spec JSON must contain an 'equations' list",
                     id="no-equations"),
        pytest.param({"equations": [{"name": "vehicle_1", "terms": [{"kind": "fixed"}]},
                                    {"name": "vehicle_2"}]},
                     "equation 'vehicle_1': term missing 'column'", id="term-without-column"),
        pytest.param({"equations": [{"name": "v"}, {"name": "v"}]},
                     "equation names must differ", id="same-names"),
        pytest.param({"equations": [{"name": "vehicle_1", "terms": [
                          {"column": "x1"}, {"column": "x1", "level": "1"}]},
                                    {"name": "vehicle_2"}], "base_levels": {"x1": "0"}},
                     "column 'x1' used both as categorical and continuous",
                     id="categorical-and-continuous"),
    ])
    def test_malformed_spec_is_exit_2(self, tmp_path, data_file, spec, message, capsys):
        path = write_json(tmp_path / "bad.json", spec)
        out = tmp_path / "f.json"
        code = run_cli("fit", "--data", data_file, "--spec", path,
                       "--estimator", "sure", "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("f.json*")) == []

    def test_spec_not_utf8_is_exit_2(self, tmp_path, data_file, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"equations": "\xff"}')
        out = tmp_path / "f.json"
        assert run_cli("fit", "--data", data_file, "--spec", str(spec),
                       "--estimator", "sure", "--out", str(out)) == 2
        assert f"model spec {spec} is not valid JSON" in capsys.readouterr().err
        assert list(tmp_path.glob("f.json*")) == []

    def test_non_convergence_exit_3_fit_still_written(self, tmp_path, data_file,
                                                      spec_file):
        out = tmp_path / "rp.json"
        # Newton needs 2 steps on this data, so a cap of 1 stops it
        code = run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--draws", "50",
                       "--max-iterations", "1", "--out", str(out))
        assert code == 3
        fit = json.loads(out.read_text())
        assert fit["convergence"]["status"] == "not converged"
        assert fit["convergence"]["iters"] == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_iteration_cap_below_one_is_exit_2(self, tmp_path, data_file, spec_file,
                                               value, capsys):
        out = tmp_path / "rp.json"
        code = run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--draws", "50",
                       "--max-iterations", value, "--out", str(out))
        assert code == 2
        assert "--max-iterations must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bases", ["2,4", "2,2", "2,x", "1"])
    def test_malformed_bases_is_exit_2(self, tmp_path, data_file, spec_file, bases,
                                       capsys):
        out = tmp_path / "rp.json"
        code = run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--draws", "50",
                       "--bases", bases, "--out", str(out))
        assert code == 2
        assert "--bases expects distinct primes" in capsys.readouterr().err
        assert list(tmp_path.glob("rp.json*")) == []

    def test_small_fit_reports_spread_ses(self, tmp_path, data_file, spec_file):
        out = tmp_path / "rp.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--draws", "50", "--out", str(out)) == 0
        fit = json.loads(out.read_text())
        assert fit["convergence"]["status"] == "converged"
        for rc in fit["random_coefficients"]:
            assert rc["sigma"] >= 0
            assert rc["sigma_se"] is not None and rc["sigma_se"] > 0

    def test_thread_flag_does_not_change_bytes(self, tmp_path, data_file, spec_file):
        a, b = tmp_path / "t1.json", tmp_path / "t8.json"
        for out, threads in ((a, "1"), (b, "8")):
            assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                           "--estimator", "rp-sure", "--draws", "50",
                           "--threads", threads, "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("estimator", ["ols", "sure"])
    @pytest.mark.parametrize("flags", RP_SURE_FLAGS)
    def test_rp_sure_option_of_a_fixed_estimator_is_exit_2(self, tmp_path, estimator,
                                                           flags, capsys):
        err = refused_before_the_data(tmp_path, SPEC, ["--estimator", estimator, *flags],
                                      capsys)
        assert f"error: --estimator {estimator} does not use {flags[0]}\n" in err

    def test_unused_options_are_refused_together_before_their_range_checks(
            self, tmp_path, capsys):
        flags = ["--draws", "0", "--burn", "-1", "--bases", "4", "--threads", "0",
                 "--max-iterations", "0"]
        err = refused_before_the_data(tmp_path, SPEC, ["--estimator", "sure", *flags], capsys)
        assert "error: --estimator sure does not use --draws, --burn, --bases, --threads, " \
               "--max-iterations\n" in err

    @pytest.mark.parametrize("flags", RP_SURE_FLAGS[:3])
    def test_draw_option_without_random_terms_is_exit_2(self, tmp_path, flags, capsys):
        err = refused_before_the_data(tmp_path, SHARED_SPEC, ["--estimator", "rp-sure", *flags],
                                      capsys)
        assert f"error: --estimator rp-sure does not use {flags[0]} on a spec without " \
               "random terms\n" in err

    @pytest.mark.parametrize("bases,count", [("2,3,5", 3), ("7", 1)])
    def test_bases_of_another_count_are_refused_before_the_data(self, tmp_path, bases,
                                                                count, capsys):
        err = refused_before_the_data(tmp_path, SPEC,
                                      ["--estimator", "rp-sure", "--bases", bases], capsys)
        assert f"error: --bases needs one prime per random term, got {count} for 2\n" in err

    @pytest.mark.parametrize("estimator,spec,flags,resolved,note", [
        pytest.param("ols", SPEC, [], {}, True, id="ols"),
        pytest.param("sure", SPEC, [], {}, True, id="sure"),
        pytest.param("sure", SHARED_SPEC, [], {}, False, id="sure-without-random-terms"),
        pytest.param("rp-sure", SPEC, ["--draws", "50"],
                     {"draws": 50, "burn": 50, "bases": [2, 3], "threads": 1,
                      "max_iterations": 500}, False, id="rp-sure"),
        pytest.param("rp-sure", SHARED_SPEC, ["--threads", "2", "--max-iterations", "50"],
                     {"threads": 2, "max_iterations": 50}, False,
                     id="rp-sure-without-random-terms"),
    ])
    def test_manifest_records_only_what_shaped_the_fit(self, tmp_path, data_file, estimator,
                                                       spec, flags, resolved, note, capsys):
        spec_path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_path,
                       "--estimator", estimator, "--out", str(out), *flags) == 0
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["options"] == {"data": data_file, "spec": spec_path,
                                       "estimator": estimator, "out": str(out), **resolved}
        # ols and sure fit random terms as fixed, the nesting compare ranks against
        notes = [line for line in capsys.readouterr().err.splitlines() if "note:" in line]
        assert notes == ([f"note: {estimator} fits the random terms "
                          "['vehicle_1:x1', 'vehicle_2:x2'] as fixed"] if note else [])

    def test_mpg_columns_is_not_a_fit_option(self, tmp_path, data_file, spec_file, capsys):
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file, "--estimator", "sure",
                       "--out", str(out), "--mpg-columns", "my_mpg,epa_mpg") == 2
        assert "unrecognized arguments: --mpg-columns my_mpg,epa_mpg" in capsys.readouterr().err
        assert list(tmp_path.glob("fit.json*")) == []

    def test_fit_reads_the_ratings_that_prepare_picked(self, tmp_path):
        # prepare trims on gaps over the label ratings and writes them as
        # epa_mpg_*, so a default fit models the prepared gaps
        rng = np.random.default_rng(4)
        raw = tmp_path / "raw.csv"
        raw.write_text("garage_id,my_mpg_1,epa_label_1,my_mpg_2,epa_label_2,model_year_1,"
                       "model_year_2,us_division\n" + "".join(
                           f"g{i},{a:.2f},{b:.1f},{c:.2f},{d:.1f},1999,2004,Pacific\n"
                           for i, (a, b, c, d) in enumerate(rng.uniform(18, 32, (60, 4)))))
        prepared, out = tmp_path / "prepared.csv", tmp_path / "fit.json"
        assert run_cli("prepare", "--input", str(raw), "--out", str(prepared),
                       "--mpg-columns", "my_mpg,epa_label") == 0
        intercepts = {"equations": [{"name": name, "intercept": True, "terms": []}
                                    for name in ("vehicle_1", "vehicle_2")]}
        assert run_cli("fit", "--data", str(prepared), "--spec",
                       write_json(tmp_path / "spec.json", intercepts), "--estimator", "ols",
                       "--out", str(out)) == 0
        header, *rows = [line.split(",") for line in prepared.read_text().splitlines()]
        gaps = np.array([[float(row[header.index(f"gap_{v}")]) for v in (1, 2)]
                         for row in rows])
        np.testing.assert_array_equal(compute_gaps(parse_raw(prepared)).gap, gaps)
        means = [eq["coef"]["const"] for eq in json.loads(out.read_text())["equations"]]
        np.testing.assert_allclose(means, gaps.mean(axis=0), rtol=0, atol=1e-12)

    def test_fit_manifest_written(self, tmp_path, data_file, spec_file):
        out = tmp_path / "sure.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "sure", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "sure.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert str(out) in manifest["outputs"]
        assert manifest["options"]["estimator"] == "sure"


RP_FIT_KEYS = ["estimator", "n", "k", "loglik", "equations", "random_coefficients",
               "sigma", "rho", "sigma1", "sigma2", "sigma1_se", "sigma2_se", "rho_se",
               "draws", "convergence", "param_names", "param_cov"]
# one schema for every estimator
FIXED_FIT_KEYS = RP_FIT_KEYS


class TestFitSchema:
    @pytest.mark.parametrize("estimator", ["ols", "sure"])
    def test_fixed_fit_keys(self, tmp_path, data_file, spec_file, estimator):
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", estimator, "--out", str(out)) == 0
        fit = json.loads(out.read_text())
        assert list(fit) == FIXED_FIT_KEYS
        assert fit["estimator"] == estimator
        assert (fit["random_coefficients"], fit["draws"], fit["convergence"]) == ([], None, None)
        assert (fit["rho_se"] is None) == (estimator == "ols")

    def test_rp_fit_keys(self, tmp_path, data_file, spec_file):
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--draws", "50",
                       "--bases", "3,5", "--out", str(out)) == 0
        fit = json.loads(out.read_text())
        assert list(fit) == RP_FIT_KEYS
        assert fit["estimator"] == "rp-sure"
        assert list(fit["draws"].items()) == [("R", 50), ("burn", 50), ("bases", [3, 5])]
        assert list(fit["convergence"]) == ["status", "iters", "grad_norm"]
        assert [list(rc) for rc in fit["random_coefficients"]] == \
            [["name", "equation", "mu", "mu_se", "sigma", "sigma_se"]] * 2

    def test_fit_without_param_cov_writes_every_t_null(self, tmp_path):
        # a fit without a parameter covariance (an rp-sure fit whose -H is
        # not positive definite) has no SEs, so no t statistics either
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(40), rng.normal(size=40)])
        design = DesignMatrices(x, x.copy(), ("const", "x"), ("const", "x"))
        fit = fgls_fit(design, 1.0 + rng.normal(size=40), 2.0 + rng.normal(size=40))
        bare = layout_fit(ParameterLayout(design, random=False),
                          [c.estimate for c in fit.coefficients], None,
                          n=fit.n, loglik=fit.loglik, sigma=fit.sigma)
        out = tmp_path / "fit.json"
        fuelgap.cli._write_json(fuelgap.cli.fit_payload(bare, "sure"), out)
        written = json.loads(out.read_text())
        assert written["param_cov"] is None
        assert [list(eq["t"].values()) for eq in written["equations"]] == [[None, None]] * 2
        assert [list(eq["se"].values()) for eq in written["equations"]] == [[None, None]] * 2
        assert [list(eq["coef"].values()) for eq in written["equations"]] == \
            [[c.estimate for c in fit.coefficients[2 * e:2 * e + 2]] for e in (0, 1)]


    @pytest.mark.parametrize("estimator", ["rp-sure", "sure"])
    def test_passes_go_to_the_manifest_not_the_fit(self, tmp_path, data_file, spec_file,
                                                    estimator):
        # what the Newton stage cost is recorded beside the fit, so the fit
        # JSON keeps its keys and its bytes across thread counts
        out = tmp_path / "fit.json"
        flags = ["--draws", "50"] if estimator == "rp-sure" else []
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", estimator, "--out", str(out), *flags) == 0
        fit = json.loads(out.read_text())
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert list(fit) == RP_FIT_KEYS
        if estimator == "sure":
            assert "passes" not in manifest
            return
        assert list(fit["convergence"]) == ["status", "iters", "grad_norm"]
        passes = manifest["passes"]
        assert list(passes) == ["newton_steps", "score_passes", "hessian_passes",
                                "modified_steps", "newton_decrement"]
        assert passes["newton_steps"] == fit["convergence"]["iters"] >= 1
        assert passes["hessian_passes"] == passes["newton_steps"] + 1
        # every accepted step costs at least one line-search trial; the
        # start's value and score come from its Hessian pass
        assert passes["score_passes"] >= passes["newton_steps"]
        assert 0 <= passes["modified_steps"] <= passes["newton_steps"]
        assert 0 <= passes["newton_decrement"] <= 1e-6


def fit_payload(loglik, k=5, n=100):
    return {"estimator": "sure", "n": n, "k": k, "loglik": loglik,
            "equations": [], "sigma": [[1, 0], [0, 1]], "rho": 0.0,
            "param_names": [], "param_cov": np.eye(k).tolist()}


def fake_fit(tmp_path, name, loglik, k=5, n=100):
    return write_json(tmp_path / name, fit_payload(loglik, k, n))


class TestCompare:
    def test_higher_loglik_wins_everywhere(self, tmp_path, capsys):
        a = fake_fit(tmp_path, "a.json", 10.0)
        b = fake_fit(tmp_path, "b.json", 20.0)
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", a, b, "--out", str(out)) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().splitlines()[1:]}
        assert rows["sure:b"].endswith("aic;caic;sbic;icomp")
        assert rows["sure:a"].endswith(",")

    def test_non_finite_covariance_scores_no_icomp(self, tmp_path, capsys):
        # a non-finite param_cov entry is written as null, so the fit has no
        # ICOMP, let alone the best one
        payload = dict(fit_payload(136.67, k=8), estimator="ols")
        payload["param_cov"][3][3] = None
        ols = write_json(tmp_path / "fit.json", payload)
        finite = fake_fit(tmp_path, "b.json", 10.0)
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", ols, finite, "--out", str(out)) == 0
        rows = {r.split(",")[0]: r.split(",") for r in out.read_text().splitlines()[1:]}
        assert rows["ols:fit"][7:] == ["", "aic;caic;sbic"]
        assert rows["sure:b"][8] == "icomp"
        printed = capsys.readouterr().out
        assert "nan" not in printed
        # the table shows --- for the missing ICOMP, and the reason under it
        assert printed.splitlines()[2].split()[-1] == "---"
        assert printed.splitlines()[-1] == \
            "ols:fit: icomp omitted: parameter covariance has non-finite entries"

    def test_null_loglik_fit_is_not_scored(self, tmp_path, capsys):
        # no estimator writes one (an unidentified fit is refused), but a fit
        # file with an unbounded log-likelihood, written null, is refused too
        ols = fake_fit(tmp_path, "fit.json", None, n=2)
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", ols, fake_fit(tmp_path, "b.json", 10.0, n=2),
                       "--out", str(out)) == 2
        assert "degenerate log-likelihood" in capsys.readouterr().err
        assert not out.exists()

    def test_fits_of_different_samples_exit_2(self, tmp_path, capsys):
        a = fake_fit(tmp_path, "a.json", 10.0, n=100)
        b = fake_fit(tmp_path, "b.json", 20.0, n=99)
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", a, b, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "different samples" in err and "sure:a has n=100" in err \
            and "sure:b has n=99" in err
        assert list(tmp_path.glob("criteria.csv*")) == []

    def test_fits_of_different_data_exit_2(self, tmp_path, truth_file, capsys):
        # the same n, but each fit's manifest records another data file hash
        spec = write_json(tmp_path / "spec.json", SHARED_SPEC)
        fits = []
        for seed in ("1", "2"):
            data, fit = tmp_path / f"data{seed}.csv", tmp_path / f"fit{seed}.json"
            assert run_cli("simulate", "--truth", truth_file, "--out", str(data),
                           "--seed", seed) == 0
            assert run_cli("fit", "--data", str(data), "--spec", spec,
                           "--estimator", "ols", "--out", str(fit)) == 0
            fits.append(str(fit))
        capsys.readouterr()
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", *fits, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "fits of different data cannot be ranked: ols:fit1 was fit to sha256:" in err
        assert list(tmp_path.glob("criteria.csv*")) == []
        # a fit of the same data as the first compares without a warning
        same = tmp_path / "sure.json"
        assert run_cli("fit", "--data", str(tmp_path / "data1.csv"), "--spec", spec,
                       "--estimator", "sure", "--out", str(same)) == 0
        capsys.readouterr()
        assert run_cli("compare", fits[0], str(same), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""

    def test_fit_without_manifest_is_named_and_compared(self, tmp_path, data_file, capsys):
        spec = write_json(tmp_path / "spec.json", SHARED_SPEC)
        fit = tmp_path / "fit.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec,
                       "--estimator", "ols", "--out", str(fit)) == 0
        bare = fake_fit(tmp_path, "bare.json", 10.0, n=json.loads(fit.read_text())["n"])
        capsys.readouterr()
        assert run_cli("compare", str(fit), bare, "--out", str(tmp_path / "c.csv")) == 0
        assert capsys.readouterr().err == \
            f"warning: fit file {bare} has no manifest, so its data is not checked\n"

    def test_colliding_labels_are_numbered(self, tmp_path):
        # one estimator and one file stem in two directories
        fits = []
        for name, loglik in (("a", 10.0), ("b", 20.0)):
            (tmp_path / name).mkdir()
            fits.append(fake_fit(tmp_path / name, "fit.json", loglik))
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", *fits, "--out", str(out)) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().splitlines()[1:]}
        assert sorted(rows) == ["sure:fit#0", "sure:fit#1"]
        assert rows["sure:fit#1"].endswith("aic;caic;sbic;icomp")

    def test_single_file_usage_error(self, tmp_path):
        a = fake_fit(tmp_path, "a.json", 10.0)
        assert run_cli("compare", a, "--out", str(tmp_path / "c.csv")) == 2

    def test_unreadable_fit_exit_2(self, tmp_path):
        a = fake_fit(tmp_path, "a.json", 10.0)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("compare", a, str(bad), "--out", str(tmp_path / "c.csv")) == 2
        assert run_cli("compare", a, str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "c.csv")) == 2

    def test_fit_without_parameter_count_exit_2(self, tmp_path, capsys):
        a = fake_fit(tmp_path, "a.json", 10.0)
        payload = fit_payload(20.0)
        del payload["k"]
        b = write_json(tmp_path / "b.json", payload)
        out = tmp_path / "c.csv"
        assert run_cli("compare", a, b, "--out", str(out)) == 2
        assert f"error: unreadable fit file {b}: 'k'\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,reason", [
        ({"param_cov": [[1.0, 0.0], [0.0]]}, "row 1 is [1.0, 0.0]"),
        ({"param_cov": np.eye(3).tolist()}, "row 1 is [1.0, 0.0, 0.0]"),
        ({"param_cov": [[1.0] * 5] * 4}, "row 5 is missing"),
        ({"param_cov": [[1.0] * 5] * 6}, "row 6 is [1.0, 1.0, 1.0, 1.0, 1.0]"),
        ({"param_cov": [[1.0] * 5, 7]}, "row 2 is 7"),
        ({"param_cov": [[1.0] * 5, [1.0, None, "x", 1.0, 1.0]]},
         "row 2 is [1.0, None, 'x', 1.0, 1.0]"),
        ({"k": 0, "param_cov": []}, None),
    ], ids=["ragged-param-cov", "param-cov-not-k-by-k", "too-few-rows", "too-many-rows",
            "row-not-a-list", "entry-not-a-number", "zero-k"])
    def test_fit_the_criteria_cannot_take_exit_2(self, tmp_path, change, reason, capsys):
        # param_cov is checked against k before numpy sees it; what the
        # criteria input still refuses is named as an unreadable fit file
        a = fake_fit(tmp_path, "a.json", 10.0)
        b = write_json(tmp_path / "b.json", {**fit_payload(20.0), **change})
        out = tmp_path / "c.csv"
        assert run_cli("compare", a, b, "--out", str(out)) == 2
        expect = (f"unreadable fit file {b}: k must be positive" if reason is None else
                  f"fit file {b}: 'param_cov' must be k = 5 lists of 5 numbers or nulls, "
                  f"but its {reason}")
        assert capsys.readouterr().err.endswith(f"error: {expect}\n")
        assert list(tmp_path.glob("c.csv*")) == []


class TestEffects:
    def rp_fit_file(self, tmp_path, randoms):
        return write_json(tmp_path / "rp.json", {
            "estimator": "rp-sure", "n": 100, "k": 9, "loglik": 1.0,
            "equations": [], "random_coefficients": randoms,
            "sigma": [[0.01, 0], [0, 0.01]], "rho": 0.0,
        })

    def test_reference_row(self, tmp_path):
        fit = self.rp_fit_file(tmp_path, [
            {"name": "gasoline", "equation": "vehicle_1",
             "mu": 0.01294, "mu_se": 0.011, "sigma": 0.0521, "sigma_se": 0.0109}])
        out = tmp_path / "effects.csv"
        assert run_cli("effects", "--fit", fit, "--out", str(out)) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[6] == "59.81" and row[7] == "40.19"
        assert float(row[4]) == pytest.approx(-0.0913, abs=5e-4)
        assert float(row[5]) == pytest.approx(0.1172, abs=5e-4)

    def test_zero_mean_is_even_split(self, tmp_path):
        fit = self.rp_fit_file(tmp_path, [
            {"name": "x", "equation": "vehicle_1", "mu": 0.0, "mu_se": 0.1,
             "sigma": 0.2, "sigma_se": 0.05}])
        out = tmp_path / "effects.csv"
        assert run_cli("effects", "--fit", fit, "--out", str(out)) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[6] == "50.00"

    @pytest.mark.parametrize("entry", [
        {"mu": 0.1},
        {"sigma": 0.2},
        {"mu": 0.1, "sigma": None},
        {"mu": None, "sigma": 0.2},
        {"mu": 0.1, "sigma": 0.0},
        {"mu": 0.1, "sigma": -0.2},
        {"mu": 0.1, "sigma": float("nan")},
        {"mu": float("inf"), "sigma": 0.2},
    ], ids=["no-sigma", "no-mu", "null-sigma", "null-mu", "zero-sigma", "negative-sigma",
            "nan-sigma", "infinite-mu"])
    def test_malformed_random_coefficient_exit_2(self, tmp_path, entry, capsys):
        good = {"name": "a", "equation": "vehicle_1", "mu": 0.0, "sigma": 0.1}
        fit = self.rp_fit_file(tmp_path, [good, {"name": "b", **entry}])
        out = tmp_path / "effects.csv"
        assert run_cli("effects", "--fit", fit, "--out", str(out)) == 2
        assert "malformed random coefficient" in capsys.readouterr().err
        assert list(tmp_path.glob("effects.csv*")) == []

    def test_fixed_only_fit_exit_2(self, tmp_path, capsys):
        fit = write_json(tmp_path / "fixed.json", {
            "estimator": "sure", "n": 10, "k": 5, "loglik": 0.0, "equations": []})
        assert run_cli("effects", "--fit", fit, "--out", str(tmp_path / "e.csv")) == 2
        assert "no random coefficients" in capsys.readouterr().err

    def test_missing_fit_file_exit_2(self, tmp_path, capsys):
        fit = tmp_path / "missing.json"
        assert run_cli("effects", "--fit", str(fit), "--out", str(tmp_path / "e.csv")) == 2
        assert f"unreadable fit file {fit}" in capsys.readouterr().err
        assert list(tmp_path.glob("e.csv*")) == []

    def test_non_object_fit_exit_2(self, tmp_path, capsys):
        fit = write_json(tmp_path / "list.json", [1, 2])
        assert run_cli("effects", "--fit", fit, "--out", str(tmp_path / "e.csv")) == 2
        assert f"fit file {fit} must be an object, got [1, 2]" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()


RP_FIT = {"estimator": "rp-sure", "n": 100, "k": 9, "loglik": 1.0, "equations": [],
          "random_coefficients": [{"name": "a", "equation": "vehicle_1",
                                   "mu": 0.0, "sigma": 0.1}]}


class TestJsonTypes:
    """Every JSON input has one type rule: a wrong type exits 2 naming its key."""

    @pytest.mark.parametrize("command,keys,value", [
        pytest.param("simulate", ["error", "sigma2"], True, id="simulate-sigma2-true"),
        pytest.param("simulate", ["error", "sigma1"], "0.1", id="simulate-sigma1-string"),
        pytest.param("simulate", ["equations", 0, "terms", 0, "coef"], True,
                     id="simulate-coef-true"),
        pytest.param("simulate", ["covariates", 0, "name"], 7, id="simulate-name-number"),
        pytest.param("simulate", ["covariates", 0, "mean"], float("nan"),
                     id="simulate-mean-nan"),
        pytest.param("compare", ["k"], 2.9, id="compare-k-fraction"),
        pytest.param("compare", ["n"], 99.5, id="compare-n-fraction"),
        pytest.param("compare", ["loglik"], "5", id="compare-loglik-string"),
        pytest.param("compare", ["param_cov", 0, 0], True, id="compare-param-cov-true"),
        pytest.param("effects", ["random_coefficients", 0, "mu"], "0.1",
                     id="effects-mu-string"),
        pytest.param("effects", ["random_coefficients", 0, "sigma"], True,
                     id="effects-sigma-true"),
    ])
    def test_wrong_type_is_exit_2(self, tmp_path, command, keys, value, capsys):
        payload = {"simulate": TRUTH, "compare": fit_payload(20.0), "effects": RP_FIT}[command]
        path = write_json(tmp_path / "input.json", mutated(payload, keys, value))
        out = tmp_path / "out.csv"
        argv = {"simulate": ["simulate", "--truth", path],
                "compare": ["compare", fake_fit(tmp_path, "a.json", 10.0), path],
                "effects": ["effects", "--fit", path]}[command]
        assert run_cli(*argv, "--out", str(out)) == 2
        named = next(k for k in reversed(keys) if isinstance(k, str))
        err = capsys.readouterr().err
        assert f"{named!r}" in err and " must be " in err
        assert list(tmp_path.glob("out.csv*")) == []


class TestHelp:
    @pytest.mark.parametrize("command,flags", [
        ("prepare", ["--input", "--out", "--trim-sd", "--mpg-columns",
                     "--group-by", "--groups-out", "--year-bins"]),
        ("fit", ["--data", "--spec", "--estimator", "--out", "--draws", "--burn",
                 "--bases", "--threads", "--max-iterations"]),
        ("compare", ["--out"]),
        ("effects", ["--fit", "--out"]),
        ("simulate", ["--truth", "--out", "--n", "--seed", "--coef-draws"]),
    ])
    def test_help_lists_every_flag_with_defaults(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == {*flags, "--help"}
        assert "(default: None)" not in " ".join(text.split())
        # a default is stated only where there is one, and it is the one used:
        # the parser's own, the rp-sure table's, or where the parser holds
        # None, the value the command puts in its place
        parser = subcommand_parsers()[command]
        derived = {"groups_out": "<out>.groups.csv", "n": "the truth file's n",
                   "seed": "the truth file's seed", "bases": "the first primes"}
        for action in parser._actions[1:]:      # the first is --help
            stated = re.findall(r"\(default: ([^)]*)\)", action.help or "")
            default = action.default
            if default is argparse.SUPPRESS:    # an rp-sure option
                default = RP_SURE_OPTIONS[action.dest][0]
            if action.dest == "year_bins":
                assert len(stated) == 1
                assert _parse_year_bins(parser, stated[0]) == DEFAULT_YEAR_BINS
            elif action.dest in derived:
                assert stated == [derived[action.dest]]
            else:
                assert stated == ([] if default is None else [str(default)]), action.dest

    def test_rp_sure_defaults_are_the_library_defaults(self, capsys):
        halton = {f.name: f.default for f in dataclasses.fields(HaltonConfig)}
        fit = inspect.signature(fit_rp_sure).parameters
        library = {"draws": halton["draws_per_obs"], "burn": halton["burn"],
                   "threads": fit["threads"].default,
                   "max_iterations": fit["max_iterations"].default}
        assert library == {"draws": 400, "burn": 50, "threads": 1, "max_iterations": 500}
        assert {k: default for k, (default, _) in RP_SURE_OPTIONS.items()} == \
            {**library, "bases": None}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--help"])
        # each option's help text, the last mention of the flag (usage comes first)
        helps = {part.split()[0]: part for part in
                 " ".join(capsys.readouterr().out.split()).split(" --")}
        for flag, value in (("draws", 400), ("burn", 50), ("threads", 1),
                            ("max-iterations", 500)):
            assert helps[flag].endswith(f"(default: {value})"), helps[flag]

    def test_module_runs_as_a_command(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(fuelgap.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "fuelgap.cli", "--version"],
                              capture_output=True, text=True, env=env, check=False)
        assert (done.returncode, done.stdout) == (0, f"{fuelgap.__version__}\n")
