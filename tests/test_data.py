import io

import numpy as np
import pytest

from fuelgap.data import (
    compute_gaps,
    encode_design,
    gap_correlation,
    group_summary,
    model_year_bin,
    parse_raw,
    responses,
    trim_outliers,
)
from fuelgap.errors import DegenerateDataError, EstimationError, ParseError, SpecError
from fuelgap.modelspec import EquationSpec, ModelSpec, Term, model_spec_from_dict

HEADER = "garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,model_year_1,model_year_2,us_division"


def csv_stream(*rows, header=HEADER):
    return io.StringIO("\n".join([header, *rows]) + "\n")


def make_obs(gap1, gap2, garage_id="g", year1=2000, year2=2005,
             division="Pacific", **covariates):
    my1, my2 = float(gap1) * 25.0, float(gap2) * 25.0
    records = parse_raw(csv_stream(
        f"{garage_id},{my1!r},25.0,{my2!r},25.0,{year1},{year2},{division}"
        + ("," + ",".join(str(v) for v in covariates.values()) if covariates else ""),
        header=HEADER + ("," + ",".join(covariates) if covariates else ""),
    ))
    return compute_gaps(records)[0]


class TestParseRaw:
    def test_single_valid_row(self):
        records = parse_raw(csv_stream("g1,20,25,22,30,1999,2004,Pacific"))
        assert len(records) == 1
        r = records[0]
        assert (r.my_mpg_1, r.epa_mpg_1) == (20.0, 25.0)
        assert (r.my_mpg_2, r.epa_mpg_2) == (22.0, 30.0)
        assert (r.model_year_1, r.model_year_2) == (1999, 2004)
        assert r.us_division == "Pacific"

    def test_covariates_preserved_verbatim(self):
        stream = csv_stream("g1,20,25,22,30,1999,2004,Pacific,Weird Fuel,1.8",
                            header=HEADER + ",fuel_type_1,displacement_1")
        r = parse_raw(stream)[0]
        assert r.covariates == {"fuel_type_1": "Weird Fuel", "displacement_1": "1.8"}

    def test_nonpositive_mpg_rejected(self):
        with pytest.raises(ParseError, match="nonpositive mpg") as err:
            parse_raw(csv_stream("g1,20,25,22,0,1999,2004,Pacific"))
        assert err.value.row == 1

    def test_missing_column_names_row(self):
        stream = csv_stream(
            "g1,20,25,22,30,1999,2004,Pacific",
            "g2,20,25,22,30,1999,2004",
            "g3,20,25,22,30,1999,2004,Pacific",
        )
        with pytest.raises(ParseError, match="row 2"):
            parse_raw(stream)

    def test_missing_required_header(self):
        with pytest.raises(ParseError, match="epa_mpg_2"):
            parse_raw(io.StringIO("garage_id\n1\n"))

    def test_vehicle_order_invariant(self):
        with pytest.raises(ParseError, match="older"):
            parse_raw(csv_stream("g1,20,25,22,30,2010,2004,Pacific"))

    def test_unparseable_number_names_field(self):
        with pytest.raises(ParseError, match="my_mpg_1"):
            parse_raw(csv_stream("g1,abc,25,22,30,1999,2004,Pacific"))

    def test_alternate_mpg_columns(self):
        header = HEADER + ",epa_label_1,epa_label_2"
        stream = csv_stream("g1,20,25,22,30,1999,2004,Pacific,24,28", header=header)
        records = parse_raw(stream, epa_col="epa_label")
        assert records[0].epa_mpg_1 == 24.0
        assert records[0].epa_mpg_2 == 28.0

    def test_accepts_bytes(self):
        data = ("\n".join([HEADER, "g1,20,25,22,30,1999,2004,Pacific"]) + "\n").encode()
        assert len(parse_raw(data)) == 1


class TestComputeGaps:
    @pytest.mark.parametrize("my,epa,expect", [(20, 25, 0.80), (28.44, 28.44, 1.0),
                                               (10, 40, 0.25)])
    def test_direct_division(self, my, epa, expect):
        records = parse_raw(csv_stream(f"g1,{my},{epa},{my},{epa},1999,2004,Pacific"))
        obs = compute_gaps(records)[0]
        assert obs.gap_1 == expect
        assert obs.gap_2 == expect

    def test_scale_consistency(self):
        # the ratio is invariant to rescaling both MPG figures
        for lam in (0.5, 2.0, 7.25):
            a = parse_raw(csv_stream("g1,21.3,26.7,19.1,24.9,1999,2004,Pacific"))[0]
            b = parse_raw(csv_stream(
                f"g1,{21.3 * lam!r},{26.7 * lam!r},{19.1 * lam!r},{24.9 * lam!r},1999,2004,Pacific"))[0]
            ga = compute_gaps([a])[0]
            gb = compute_gaps([b])[0]
            assert ga.gap_1 == pytest.approx(gb.gap_1, rel=1e-15)
            assert ga.gap_2 == pytest.approx(gb.gap_2, rel=1e-15)


class TestTrimOutliers:
    def test_no_outliers(self):
        rng = np.random.default_rng(0)
        obs = [make_obs(g1, g2, garage_id=f"g{i}")
               for i, (g1, g2) in enumerate(
                   zip(0.85 + 0.01 * rng.uniform(-1, 1, 100),
                       0.84 + 0.01 * rng.uniform(-1, 1, 100)))]
        kept, removed, report = trim_outliers(obs, 3.0)
        assert len(kept) == 100 and not removed
        assert report.n_removed == 0

    def test_planted_outlier_removed(self):
        rng = np.random.default_rng(1)
        gaps1 = 0.8 + 0.1 * rng.uniform(size=99)
        planted_gap = gaps1.mean() + 5 * gaps1.std(ddof=1)
        obs = [make_obs(g, 0.85, garage_id=f"g{i}") for i, g in enumerate(gaps1)]
        obs.append(make_obs(planted_gap, 0.85, garage_id="planted"))
        kept, removed, report = trim_outliers(obs, 3.0)
        # independent oracle: recompute the interval over the full input
        g1 = np.array([o.gap_1 for o in obs])
        lo = g1.mean() - 3 * g1.std(ddof=1)
        hi = g1.mean() + 3 * g1.std(ddof=1)
        expect_removed = {o.garage_id for o in obs if not lo <= o.gap_1 <= hi}
        assert expect_removed == {"planted"}
        assert [o.garage_id for o in removed] == ["planted"]
        assert len(kept) == 99
        assert report.n_outside == (1, 0)

    def test_partition_contract(self):
        rng = np.random.default_rng(2)
        obs = [make_obs(g1, g2, garage_id=f"g{i}")
               for i, (g1, g2) in enumerate(zip(0.9 + 0.2 * rng.normal(size=200),
                                                0.9 + 0.2 * rng.normal(size=200)))
               if g1 > 0.05 and g2 > 0.05]
        kept, removed, report = trim_outliers(obs, 1.5)
        assert len(kept) + len(removed) == len(obs)
        assert not ({o.garage_id for o in kept} & {o.garage_id for o in removed})
        gaps = np.array([[o.gap_1, o.gap_2] for o in obs])
        mu = gaps.mean(axis=0)
        sd = gaps.std(axis=0, ddof=1)
        for o in removed:
            outside_1 = not mu[0] - 1.5 * sd[0] <= o.gap_1 <= mu[0] + 1.5 * sd[0]
            outside_2 = not mu[1] - 1.5 * sd[1] <= o.gap_2 <= mu[1] + 1.5 * sd[1]
            assert outside_1 or outside_2

    def test_insufficient_sample(self):
        with pytest.raises(DegenerateDataError, match="insufficient sample"):
            trim_outliers([make_obs(0.8, 0.9), make_obs(0.9, 0.8)], 3.0)

    def test_nonpositive_multiplier(self):
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}") for i in range(5)]
        with pytest.raises(ValueError):
            trim_outliers(obs, 0.0)

    def test_report_round_trip(self):
        obs = [make_obs(0.8 + 0.01 * i, 0.9 - 0.01 * i, garage_id=f"g{i}")
               for i in range(10)]
        _, _, report = trim_outliers(obs)
        d = report.as_dict()
        assert d["n_input"] == 10
        assert set(d) == {"n_input", "n_kept", "n_removed", "removed_ids",
                          "mu", "sd", "n_outside", "multiplier"}


def two_equation_spec(terms1, terms2, base_levels=None, intercept=True):
    # `intercept` applies to equation 1; equation 2 always keeps its
    # intercept, so an empty terms2 still leaves it a design column
    return ModelSpec(
        equations=(EquationSpec("vehicle_1", tuple(terms1), intercept=intercept),
                   EquationSpec("vehicle_2", tuple(terms2))),
        base_levels=base_levels or {},
    )


class TestEncodeDesign:
    def test_one_hot_minus_base(self):
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}", fuel_type_1=lvl)
               for i, lvl in enumerate(["A", "B", "C"])]
        spec = two_equation_spec(
            [Term("fuel_type_1", "B"), Term("fuel_type_1", "C")], [],
            base_levels={"fuel_type_1": "A"}, intercept=False)
        design = encode_design(obs, spec)
        np.testing.assert_array_equal(design.x1, [[0, 0], [1, 0], [0, 1]])
        assert design.names1 == ("fuel_type_1=B", "fuel_type_1=C")

    def test_intercept_only(self):
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}") for i in range(5)]
        design = encode_design(obs, two_equation_spec([], []))
        np.testing.assert_array_equal(design.x1, np.ones((5, 1)))
        assert design.names1 == ("const",)

    def test_duplicate_term_rejected_before_numeric_work(self):
        with pytest.raises(SpecError, match="twice"):
            two_equation_spec([Term("displacement_1"), Term("displacement_1")], [])

    def test_base_level_term_rejected(self):
        with pytest.raises(SpecError, match="base level"):
            two_equation_spec([Term("fuel_type_1", "A")], [],
                              base_levels={"fuel_type_1": "A"})

    def test_missing_base_declaration_rejected(self):
        with pytest.raises(SpecError, match="base level"):
            two_equation_spec([Term("fuel_type_1", "B")], [])

    def test_category_row_sums(self):
        rng = np.random.default_rng(3)
        levels = ["Gasoline", "Hybrid", "Diesel"]
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}", fuel_type_1=rng.choice(levels))
               for i in range(50)]
        spec = two_equation_spec(
            [Term("fuel_type_1", "Gasoline"), Term("fuel_type_1", "Hybrid")], [],
            base_levels={"fuel_type_1": "Diesel"}, intercept=False)
        design = encode_design(obs, spec)
        sums = design.x1.sum(axis=1)
        assert set(sums) <= {0.0, 1.0}
        for o, s in zip(obs, sums):
            assert (s == 0.0) == (o.covariates["fuel_type_1"] == "Diesel")

    def test_missing_category_maps_to_not_reported(self):
        obs = [make_obs(0.8, 0.9, garage_id="g0", style_1=""),
               make_obs(0.8, 0.9, garage_id="g1", style_1="Cautious")]
        spec = two_equation_spec([Term("style_1", "Not reported")], [],
                                 base_levels={"style_1": "Cautious"}, intercept=False)
        design = encode_design(obs, spec)
        np.testing.assert_array_equal(design.x1.ravel(), [1.0, 0.0])

    def test_continuous_column(self):
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}", displacement_1=str(1.5 + i))
               for i in range(4)]
        design = encode_design(obs, two_equation_spec([Term("displacement_1")], []))
        np.testing.assert_array_equal(design.x1[:, 1], [1.5, 2.5, 3.5, 4.5])

    def test_unresolvable_variable(self):
        obs = [make_obs(0.8, 0.9)]
        with pytest.raises(SpecError, match="no_such"):
            encode_design(obs, two_equation_spec([Term("no_such")], []))

    def test_rank_deficiency_names_columns(self):
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}", a_1=str(i), b_1=str(2.0 * i))
               for i in range(6)]
        spec = two_equation_spec([Term("a_1"), Term("b_1")], [])
        with pytest.raises(EstimationError, match="a_1|b_1"):
            encode_design(obs, spec)

    def test_equation_without_columns_rejected(self):
        with pytest.raises(SpecError, match="'vehicle_2' has no design columns"):
            EquationSpec("vehicle_2", (), intercept=False)
        with pytest.raises(SpecError, match="'v1' has no design columns"):
            model_spec_from_dict({"equations": [
                {"name": "v1", "intercept": False, "terms": []},
                {"name": "v2", "terms": [{"column": "x"}]}]})

    def test_random_indices_follow_spec_order(self):
        obs = [make_obs(0.8, 0.9, garage_id=f"g{i}", a_1=str(i), b_1=str(i * i),
                        c_2=str(3 - i)) for i in range(5)]
        spec = two_equation_spec(
            [Term("a_1", kind="random-normal"), Term("b_1")],
            [Term("c_2", kind="random-normal")])
        design = encode_design(obs, spec)
        assert design.random1 == (1,)
        assert design.random2 == (1,)
        y1, y2 = responses(obs)
        assert y1.shape == y2.shape == (5,)


class TestGapCorrelation:
    def test_perfect_correlation(self):
        obs = [make_obs(g, g, garage_id=f"g{i}") for i, g in enumerate([0.7, 0.8, 0.9, 1.0])]
        assert gap_correlation(obs) == 1.0

    def test_perfect_anticorrelation(self):
        obs = [make_obs(g, 2.0 - g, garage_id=f"g{i}")
               for i, g in enumerate([0.7, 0.8, 0.9, 1.0])]
        assert gap_correlation(obs) == -1.0

    def test_synthetic_rho_040(self):
        # bivariate normal with correlation 0.40, as in the observed-gap statistic
        rng = np.random.default_rng(np.random.Philox(key=20180402))
        n = 10_000
        z = rng.standard_normal((n, 2))
        g1 = 0.86 + 0.14 * z[:, 0]
        g2 = 0.85 + 0.14 * (0.40 * z[:, 0] + np.sqrt(1 - 0.40 ** 2) * z[:, 1])
        g1 = np.clip(g1, 0.05, None)
        g2 = np.clip(g2, 0.05, None)
        obs = [make_obs(a, b, garage_id=f"g{i}") for i, (a, b) in enumerate(zip(g1, g2))]
        assert gap_correlation(obs) == pytest.approx(0.40, abs=0.03)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(8)
        g1 = 0.8 + 0.1 * rng.uniform(size=30)
        g2 = 0.9 + 0.1 * rng.uniform(size=30)
        obs = [make_obs(a, b, garage_id=f"g{i}") for i, (a, b) in enumerate(zip(g1, g2))]
        swapped = [make_obs(b, a, garage_id=f"g{i}") for i, (a, b) in enumerate(zip(g1, g2))]
        assert gap_correlation(obs) == pytest.approx(gap_correlation(swapped), abs=1e-12)
        scaled = [make_obs(2.0 * a + 0.1, b, garage_id=f"g{i}")
                  for i, (a, b) in enumerate(zip(g1, g2))]
        assert gap_correlation(scaled) == pytest.approx(gap_correlation(obs), abs=1e-9)

    def test_zero_variance_errors(self):
        obs = [make_obs(0.8, 0.7 + 0.1 * i, garage_id=f"g{i}") for i in range(4)]
        with pytest.raises(DegenerateDataError, match="degenerate series"):
            gap_correlation(obs)


class TestGroupSummary:
    def test_single_group_mean(self):
        obs = [make_obs(0.8, 0.8, garage_id="a", division="Pacific"),
               make_obs(1.0, 1.0, garage_id="b", division="Pacific")]
        rows = group_summary(obs, ["us_division"])
        assert len(rows) == 1
        assert rows[0].mean_gap_1 == pytest.approx(0.9)
        assert rows[0].n == 2

    def test_constant_key_single_row(self):
        obs = [make_obs(0.8 + i * 0.01, 0.9, garage_id=f"g{i}", cov_1="same")
               for i in range(7)]
        rows = group_summary(obs, ["cov_1"])
        assert len(rows) == 1 and rows[0].n == 7

    def test_two_by_two_hand_means(self):
        spec = [
            ("Pacific", 1985, [0.80, 0.90]),
            ("Pacific", 2010, [0.70, 0.74]),
            ("Mountain", 1985, [1.00, 1.10]),
            ("Mountain", 2010, [0.60, 0.62, 0.64]),
        ]
        obs = []
        for div, year, gaps in spec:
            for j, g in enumerate(gaps):
                obs.append(make_obs(g, 0.85, garage_id=f"{div}{year}{j}",
                                    year1=year, year2=2014, division=div))
        rows = group_summary(obs, ["us_division", "model_year_bin_1"])
        assert [r.key for r in rows] == [
            ("Mountain", "1984-1988"), ("Mountain", "2009-2014"),
            ("Pacific", "1984-1988"), ("Pacific", "2009-2014")]
        means = {r.key: r.mean_gap_1 for r in rows}
        assert means[("Pacific", "1984-1988")] == pytest.approx(0.85)
        assert means[("Mountain", "2009-2014")] == pytest.approx(0.62)

    def test_year_bins(self):
        assert model_year_bin(1984) == "1984-1988"
        assert model_year_bin(2003) == "1999-2003"
        assert model_year_bin(2014) == "2009-2014"
        assert model_year_bin(1970) == "outside"
