import json
import warnings

import numpy as np
import pytest

from fuelgap.cli import build_parser, main

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

    def test_invalid_truth_is_exit_2(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"n": 3, "seed": 1})
        assert run_cli("simulate", "--truth", path, "--out", str(tmp_path / "x.csv")) == 2


class TestPrepare:
    def test_valid_input_writes_outputs(self, tmp_path, data_file):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out)) == 0
        assert out.exists()
        assert (tmp_path / "prepared.report.json").exists()
        assert (tmp_path / "prepared.csv.manifest.json").exists()

    def test_trim_sd_zero_usage_error(self, tmp_path, data_file):
        assert run_cli("prepare", "--input", data_file,
                       "--out", str(tmp_path / "p.csv"), "--trim-sd", "0") == 2

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

    @pytest.mark.parametrize("year", ["inf", "1e400"])
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

    @pytest.mark.parametrize("bins", ["1990", "1990-x", "2000-1990"])
    def test_malformed_year_bins_is_exit_2(self, tmp_path, data_file, bins, capsys):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out),
                       "--group-by", "model_year_bin_1", "--year-bins", bins) == 2
        assert "--year-bins" in capsys.readouterr().err
        assert list(tmp_path.glob("prepared*")) == []

    def test_group_summary_output(self, tmp_path, data_file):
        out = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out),
                       "--group-by", "us_division,model_year_bin_1") == 0
        groups = (tmp_path / "prepared.groups.csv").read_text().splitlines()
        assert groups[0] == "us_division,model_year_bin_1,n,mean_gap_1,mean_gap_2"
        assert len(groups) == 2  # one synthetic division x one year bin

    def test_identical_rerun_reproduces_output_hashes(self, tmp_path, data_file):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("prepare", "--input", data_file, "--out", str(out_a)) == 0
        assert run_cli("prepare", "--input", data_file, "--out", str(out_b)) == 0
        man_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        man_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert man_a["inputs"] == man_b["inputs"]
        assert list(man_a["outputs"].values()) == list(man_b["outputs"].values())


class TestFit:
    def test_ols_two_point_interpolation(self, tmp_path):
        raw = tmp_path / "two.csv"
        raw.write_text(
            "garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
            "model_year_1,model_year_2,us_division,x\n"
            "a,25,25,25,25,1999,2004,Pacific,0\n"
            "b,50,25,50,25,1999,2004,Pacific,1\n")
        spec = write_json(tmp_path / "interp.json", {
            "equations": [
                {"name": "vehicle_1", "intercept": True, "terms": [{"column": "x"}]},
                {"name": "vehicle_2", "intercept": True, "terms": [{"column": "x"}]},
            ]})
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", str(raw), "--spec", spec,
                       "--estimator", "ols", "--out", str(out)) == 0
        fit = json.loads(out.read_text())
        coef = fit["equations"][0]["coef"]
        assert coef["const"] == pytest.approx(1.0, abs=1e-10)
        assert coef["x"] == pytest.approx(1.0, abs=1e-10)

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

    def test_non_convergence_exit_3_fit_still_written(self, tmp_path, data_file,
                                                      spec_file):
        out = tmp_path / "rp.json"
        code = run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "rp-sure", "--draws", "50",
                       "--max-iterations", "2", "--out", str(out))
        assert code == 3
        fit = json.loads(out.read_text())
        assert fit["convergence"]["status"] == "not converged"

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

    @pytest.mark.parametrize("bases", ["2,4", "2,2", "2,x"])
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

    def test_fit_manifest_written(self, tmp_path, data_file, spec_file):
        out = tmp_path / "sure.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", "sure", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "sure.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert str(out) in manifest["outputs"]
        assert manifest["options"]["estimator"] == "sure"


FIXED_FIT_KEYS = ["estimator", "n", "k", "loglik", "equations", "sigma", "rho",
                  "param_names", "param_cov"]
RP_FIT_KEYS = ["estimator", "n", "k", "loglik", "equations", "random_coefficients",
               "sigma", "rho", "sigma1", "sigma2", "sigma1_se", "sigma2_se", "rho_se",
               "draws", "convergence", "param_names", "param_cov"]


class TestFitSchema:
    @pytest.mark.parametrize("estimator", ["ols", "sure"])
    def test_fixed_fit_keys(self, tmp_path, data_file, spec_file, estimator):
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--data", data_file, "--spec", spec_file,
                       "--estimator", estimator, "--out", str(out)) == 0
        fit = json.loads(out.read_text())
        assert list(fit) == FIXED_FIT_KEYS
        assert fit["estimator"] == estimator

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


def fake_fit(tmp_path, name, loglik, k=5, n=100):
    return write_json(tmp_path / name, {
        "estimator": "sure", "n": n, "k": k, "loglik": loglik,
        "equations": [], "sigma": [[1, 0], [0, 1]], "rho": 0.0,
        "param_names": [], "param_cov": np.eye(k).tolist(),
    })


class TestCompare:
    def test_higher_loglik_wins_everywhere(self, tmp_path, capsys):
        a = fake_fit(tmp_path, "a.json", 10.0)
        b = fake_fit(tmp_path, "b.json", 20.0)
        out = tmp_path / "criteria.csv"
        assert run_cli("compare", a, b, "--out", str(out)) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().splitlines()[1:]}
        assert rows["sure:b"].endswith("aic;caic;sbic;icomp")
        assert rows["sure:a"].endswith(",")

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

    def test_non_object_fit_exit_2(self, tmp_path, capsys):
        fit = write_json(tmp_path / "list.json", [1, 2])
        assert run_cli("effects", "--fit", fit, "--out", str(tmp_path / "e.csv")) == 2
        assert "no random coefficients" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()


class TestHelp:
    @pytest.mark.parametrize("command,flags", [
        ("prepare", ["--input", "--out", "--trim-sd", "--mpg-columns",
                     "--group-by", "--groups-out", "--year-bins"]),
        ("fit", ["--data", "--spec", "--estimator", "--out", "--draws", "--burn",
                 "--bases", "--threads", "--max-iterations", "--cov-denominator",
                 "--mpg-columns"]),
        ("compare", ["--out"]),
        ("effects", ["--fit", "--out"]),
        ("simulate", ["--truth", "--out", "--n", "--seed", "--coef-draws"]),
    ])
    def test_help_lists_every_flag_with_defaults(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text
        assert "default" in text
