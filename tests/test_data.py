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


def garage(gap1, gap2, garage_id="g", year1=2000, year2=2005,
           division="Pacific", **covariates):
    """One CSV line of a garage whose gaps are gap1, gap2 over ratings of 25."""
    my1, my2 = float(gap1) * 25.0, float(gap2) * 25.0
    cells = [garage_id, repr(my1), "25.0", repr(my2), "25.0", str(year1), str(year2),
             division, *(str(v) for v in covariates.values())]
    return ",".join(cells), list(covariates)


def make_table(*rows):
    """Gap table of garage() lines parsed from one CSV; covariates of the first."""
    names = rows[0][1]
    return compute_gaps(parse_raw(csv_stream(*(line for line, _ in rows),
                                             header=",".join([HEADER, *names]))))


class TestParseRaw:
    def test_single_valid_row(self):
        table = parse_raw(csv_stream("g1,20,25,22,30,1999,2004,Pacific"))
        assert len(table) == 1
        assert (table.my_mpg[0, 0], table.epa_mpg[0, 0]) == (20.0, 25.0)
        assert (table.my_mpg[0, 1], table.epa_mpg[0, 1]) == (22.0, 30.0)
        assert table.model_year.tolist() == [[1999, 2004]]
        assert table.garage_id.tolist() == ["g1"]
        assert table.us_division.tolist() == ["Pacific"]

    def test_covariates_preserved_verbatim(self):
        stream = csv_stream("g1,20,25,22,30,1999,2004,Pacific,Weird Fuel,1.8",
                            header=HEADER + ",fuel_type_1,displacement_1")
        covariates = parse_raw(stream).covariates
        assert {k: v.tolist() for k, v in covariates.items()} == \
            {"fuel_type_1": ["Weird Fuel"], "displacement_1": ["1.8"]}
        assert list(covariates) == ["fuel_type_1", "displacement_1"]

    def test_repeated_header_name_is_an_error(self):
        stream = csv_stream("g1,20,25,22,30,1999,2004,Pacific,a,b,c,d",
                            header=HEADER + ",x,y,x,garage_id")
        with pytest.raises(ParseError, match=r"row 0: header repeats column names "
                                             r"\['garage_id', 'x'\]"):
            parse_raw(stream)

    def test_numbers_follow_python_float(self):
        cells = [" 20 ", "2_5", "+2.2e1", "30.000000000000004", "1999.9", " 2004"]
        table = parse_raw(csv_stream(",".join(["g1", *cells, "Pacific"])))
        assert table.my_mpg.tolist() == [[float(cells[0]), float(cells[2])]]
        assert table.epa_mpg.tolist() == [[float(cells[1]), float(cells[3])]]
        assert table.model_year.tolist() == [[int(float(cells[4])), int(float(cells[5]))]]

    def test_rows_across_batches(self):
        lines = [f"g{i},{20 + i % 7},25,22,30,1999,2004,Pacific" for i in range(9000)]
        table = parse_raw(csv_stream(*lines))
        assert table.garage_id.tolist() == [f"g{i}" for i in range(9000)]
        assert table.my_mpg[:, 0].tolist() == [float(20 + i % 7) for i in range(9000)]
        lines[8500] = "g8500,20,25,22,30,2010,2004,Pacific"
        lines[8700] = "g8700,20,25"
        with pytest.raises(ParseError, match="older") as err:
            parse_raw(csv_stream(*lines))
        assert err.value.row == 8501

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
        table = parse_raw(stream, epa_col="epa_label")
        assert table.epa_mpg[0, 0] == 24.0
        assert table.epa_mpg[0, 1] == 28.0

    def test_accepts_bytes(self):
        data = ("\n".join([HEADER, "g1,20,25,22,30,1999,2004,Pacific"]) + "\n").encode()
        assert len(parse_raw(data)) == 1

    def test_blank_lines_skipped_and_not_counted(self):
        stream = io.StringIO("\n".join([HEADER, "", "g1,20,25,22,30,1999,2004,Pacific", "",
                                        "", "g2,20,25,22,30,1999,2004,Pacific", ""]) + "\n")
        assert len(parse_raw(stream)) == 2
        stream = io.StringIO("\n".join([HEADER, "", "g1,20,25,22,30,1999,2004,Pacific", "",
                                        "g2,20,25,22,x,1999,2004,Pacific"]) + "\n")
        with pytest.raises(ParseError, match="epa_mpg_2") as err:
            parse_raw(stream)
        assert err.value.row == 2

    def test_first_bad_field_in_field_order_is_named(self):
        with pytest.raises(ParseError, match="'my_mpg_2'") as err:
            parse_raw(csv_stream("g1,20,25,22,30,1999,2004,Pacific",
                                 "g2,20,25,bad,30,later,2004,Pacific"))
        assert err.value.row == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-3"])
    def test_non_finite_mpg_is_nonpositive(self, value):
        with pytest.raises(ParseError, match="nonpositive mpg in field 'my_mpg_1'") as err:
            parse_raw(csv_stream(f"g1,{value},25,22,30,1999,2004,Pacific"))
        assert err.value.row == 1

    def test_long_row_names_row(self):
        with pytest.raises(ParseError, match="more fields than the header") as err:
            parse_raw(csv_stream("g1,20,25,22,30,1999,2004,Pacific",
                                 "g2,20,25,22,30,1999,2004,Pacific",
                                 "g3,20,25,22,30,1999,2004,Pacific,extra"))
        assert err.value.row == 3

    def test_earlier_bad_number_reported_before_later_short_row(self):
        with pytest.raises(ParseError, match="'model_year_2'") as err:
            parse_raw(csv_stream("g1,20,25,22,30,1999,,Pacific",
                                 "g2,20,25,22,30,1999"))
        assert err.value.row == 1

    @pytest.mark.parametrize("value", ["inf", "1e400", "-inf", "nan"])
    def test_non_finite_model_year_is_not_an_integer(self, value):
        with pytest.raises(ParseError, match="field 'model_year_1' is not an integer") as err:
            parse_raw(csv_stream("g1,20,25,22,30,1999,2004,Pacific",
                                 f"g2,20,25,22,30,{value},2004,Pacific"))
        assert err.value.row == 2


class TestComputeGaps:
    @pytest.mark.parametrize("my,epa,expect", [(20, 25, 0.80), (28.44, 28.44, 1.0),
                                               (10, 40, 0.25)])
    def test_direct_division(self, my, epa, expect):
        table = compute_gaps(
            parse_raw(csv_stream(f"g1,{my},{epa},{my},{epa},1999,2004,Pacific")))
        assert table.gap[0, 0] == expect
        assert table.gap[0, 1] == expect

    def test_scale_consistency(self):
        # the ratio is invariant to rescaling both MPG figures
        for lam in (0.5, 2.0, 7.25):
            a = parse_raw(csv_stream("g1,21.3,26.7,19.1,24.9,1999,2004,Pacific"))
            b = parse_raw(csv_stream(
                f"g1,{21.3 * lam!r},{26.7 * lam!r},{19.1 * lam!r},{24.9 * lam!r},1999,2004,Pacific"))
            ga = compute_gaps(a).gap[0]
            gb = compute_gaps(b).gap[0]
            assert ga[0] == pytest.approx(gb[0], rel=1e-15)
            assert ga[1] == pytest.approx(gb[1], rel=1e-15)


class TestTrimOutliers:
    def test_no_outliers(self):
        rng = np.random.default_rng(0)
        table = make_table(*(garage(g1, g2, garage_id=f"g{i}")
                             for i, (g1, g2) in enumerate(
                                 zip(0.85 + 0.01 * rng.uniform(-1, 1, 100),
                                     0.84 + 0.01 * rng.uniform(-1, 1, 100)))))
        kept, removed, report = trim_outliers(table, 3.0)
        assert len(kept) == 100 and not len(removed)
        assert report.n_removed == 0

    def test_planted_outlier_removed(self):
        rng = np.random.default_rng(1)
        gaps1 = 0.8 + 0.1 * rng.uniform(size=99)
        planted_gap = gaps1.mean() + 5 * gaps1.std(ddof=1)
        table = make_table(*(garage(g, 0.85, garage_id=f"g{i}") for i, g in enumerate(gaps1)),
                           garage(planted_gap, 0.85, garage_id="planted"))
        kept, removed, report = trim_outliers(table, 3.0)
        # independent oracle: recompute the interval over the full input
        g1 = np.array(table.gap[:, 0].tolist())
        lo = g1.mean() - 3 * g1.std(ddof=1)
        hi = g1.mean() + 3 * g1.std(ddof=1)
        expect_removed = {gid for gid, g in zip(table.garage_id.tolist(), g1.tolist())
                          if not lo <= g <= hi}
        assert expect_removed == {"planted"}
        assert removed.garage_id.tolist() == ["planted"]
        assert len(kept) == 99
        assert report.n_outside == (1, 0)

    def test_partition_contract(self):
        rng = np.random.default_rng(2)
        table = make_table(*(garage(g1, g2, garage_id=f"g{i}")
                             for i, (g1, g2) in enumerate(zip(0.9 + 0.2 * rng.normal(size=200),
                                                              0.9 + 0.2 * rng.normal(size=200)))
                             if g1 > 0.05 and g2 > 0.05))
        kept, removed, report = trim_outliers(table, 1.5)
        assert len(kept) + len(removed) == len(table)
        assert not (set(kept.garage_id.tolist()) & set(removed.garage_id.tolist()))
        gaps = np.array(table.gap.tolist())
        mu = gaps.mean(axis=0)
        sd = gaps.std(axis=0, ddof=1)
        # the interval is the one computed over a list of the gap pairs, to the bit
        assert report.mu == tuple(mu.tolist()) and report.sd == tuple(sd.tolist())
        for gap_1, gap_2 in removed.gap.tolist():
            outside_1 = not mu[0] - 1.5 * sd[0] <= gap_1 <= mu[0] + 1.5 * sd[0]
            outside_2 = not mu[1] - 1.5 * sd[1] <= gap_2 <= mu[1] + 1.5 * sd[1]
            assert outside_1 or outside_2

    def test_insufficient_sample(self):
        with pytest.raises(DegenerateDataError, match="insufficient sample"):
            trim_outliers(make_table(garage(0.8, 0.9), garage(0.9, 0.8)), 3.0)

    def test_nonpositive_multiplier(self):
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}") for i in range(5)))
        with pytest.raises(ValueError):
            trim_outliers(table, 0.0)

    def test_report_round_trip(self):
        table = make_table(*(garage(0.8 + 0.01 * i, 0.9 - 0.01 * i, garage_id=f"g{i}")
                             for i in range(10)))
        _, _, report = trim_outliers(table)
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
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}", fuel_type_1=lvl)
                             for i, lvl in enumerate(["A", "B", "C"])))
        spec = two_equation_spec(
            [Term("fuel_type_1", "B"), Term("fuel_type_1", "C")], [],
            base_levels={"fuel_type_1": "A"}, intercept=False)
        design = encode_design(table, spec)
        np.testing.assert_array_equal(design.x1, [[0, 0], [1, 0], [0, 1]])
        assert design.names1 == ("fuel_type_1=B", "fuel_type_1=C")

    def test_intercept_only(self):
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}") for i in range(5)))
        design = encode_design(table, two_equation_spec([], []))
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
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}", fuel_type_1=rng.choice(levels))
                             for i in range(50)))
        spec = two_equation_spec(
            [Term("fuel_type_1", "Gasoline"), Term("fuel_type_1", "Hybrid")], [],
            base_levels={"fuel_type_1": "Diesel"}, intercept=False)
        design = encode_design(table, spec)
        sums = design.x1.sum(axis=1)
        assert set(sums) <= {0.0, 1.0}
        for fuel, s in zip(table.covariates["fuel_type_1"].tolist(), sums):
            assert (s == 0.0) == (fuel == "Diesel")

    def test_missing_category_maps_to_not_reported(self):
        table = make_table(garage(0.8, 0.9, garage_id="g0", style_1=""),
                           garage(0.8, 0.9, garage_id="g1", style_1="Cautious"))
        spec = two_equation_spec([Term("style_1", "Not reported")], [],
                                 base_levels={"style_1": "Cautious"}, intercept=False)
        design = encode_design(table, spec)
        np.testing.assert_array_equal(design.x1.ravel(), [1.0, 0.0])

    def test_continuous_column(self):
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}", displacement_1=str(1.5 + i))
                             for i in range(4)))
        design = encode_design(table, two_equation_spec([Term("displacement_1")], []))
        np.testing.assert_array_equal(design.x1[:, 1], [1.5, 2.5, 3.5, 4.5])

    def test_unresolvable_variable(self):
        table = make_table(garage(0.8, 0.9))
        with pytest.raises(SpecError, match="no_such"):
            encode_design(table, two_equation_spec([Term("no_such")], []))

    def test_rank_deficiency_names_columns(self):
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}", a_1=str(i), b_1=str(2.0 * i))
                             for i in range(6)))
        spec = two_equation_spec([Term("a_1"), Term("b_1")], [])
        with pytest.raises(EstimationError, match="a_1|b_1"):
            encode_design(table, spec)

    def test_equation_without_columns_rejected(self):
        with pytest.raises(SpecError, match="'vehicle_2' has no design columns"):
            EquationSpec("vehicle_2", (), intercept=False)
        with pytest.raises(SpecError, match="'v1' has no design columns"):
            model_spec_from_dict({"equations": [
                {"name": "v1", "intercept": False, "terms": []},
                {"name": "v2", "terms": [{"column": "x"}]}]})

    def test_random_indices_follow_spec_order(self):
        table = make_table(*(garage(0.8, 0.9, garage_id=f"g{i}", a_1=str(i), b_1=str(i * i),
                                    c_2=str(3 - i)) for i in range(5)))
        spec = two_equation_spec(
            [Term("a_1", kind="random-normal"), Term("b_1")],
            [Term("c_2", kind="random-normal")])
        design = encode_design(table, spec)
        assert design.random1 == (1,)
        assert design.random2 == (1,)
        y1, y2 = responses(table)
        assert y1.shape == y2.shape == (5,)


class TestGapCorrelation:
    def test_perfect_correlation(self):
        table = make_table(*(garage(g, g, garage_id=f"g{i}")
                             for i, g in enumerate([0.7, 0.8, 0.9, 1.0])))
        assert gap_correlation(table) == 1.0

    def test_perfect_anticorrelation(self):
        table = make_table(*(garage(g, 2.0 - g, garage_id=f"g{i}")
                             for i, g in enumerate([0.7, 0.8, 0.9, 1.0])))
        assert gap_correlation(table) == -1.0

    def test_synthetic_rho_040(self):
        # bivariate normal with correlation 0.40, as in the observed-gap statistic
        rng = np.random.default_rng(np.random.Philox(key=20180402))
        n = 10_000
        z = rng.standard_normal((n, 2))
        g1 = 0.86 + 0.14 * z[:, 0]
        g2 = 0.85 + 0.14 * (0.40 * z[:, 0] + np.sqrt(1 - 0.40 ** 2) * z[:, 1])
        g1 = np.clip(g1, 0.05, None)
        g2 = np.clip(g2, 0.05, None)
        table = make_table(*(garage(a, b, garage_id=f"g{i}")
                             for i, (a, b) in enumerate(zip(g1, g2))))
        assert gap_correlation(table) == pytest.approx(0.40, abs=0.03)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(8)
        g1 = 0.8 + 0.1 * rng.uniform(size=30)
        g2 = 0.9 + 0.1 * rng.uniform(size=30)
        table = make_table(*(garage(a, b, garage_id=f"g{i}")
                             for i, (a, b) in enumerate(zip(g1, g2))))
        swapped = make_table(*(garage(b, a, garage_id=f"g{i}")
                               for i, (a, b) in enumerate(zip(g1, g2))))
        assert gap_correlation(table) == pytest.approx(gap_correlation(swapped), abs=1e-12)
        scaled = make_table(*(garage(2.0 * a + 0.1, b, garage_id=f"g{i}")
                              for i, (a, b) in enumerate(zip(g1, g2))))
        assert gap_correlation(scaled) == pytest.approx(gap_correlation(table), abs=1e-9)

    def test_zero_variance_errors(self):
        table = make_table(*(garage(0.8, 0.7 + 0.1 * i, garage_id=f"g{i}") for i in range(4)))
        with pytest.raises(DegenerateDataError, match="degenerate series"):
            gap_correlation(table)


class TestGroupSummary:
    def test_single_group_mean(self):
        table = make_table(garage(0.8, 0.8, garage_id="a", division="Pacific"),
                           garage(1.0, 1.0, garage_id="b", division="Pacific"))
        rows = group_summary(table, ["us_division"])
        assert len(rows) == 1
        assert rows[0].mean_gap_1 == pytest.approx(0.9)
        assert rows[0].n == 2

    def test_constant_key_single_row(self):
        table = make_table(*(garage(0.8 + i * 0.01, 0.9, garage_id=f"g{i}", cov_1="same")
                             for i in range(7)))
        rows = group_summary(table, ["cov_1"])
        assert len(rows) == 1 and rows[0].n == 7

    def test_two_by_two_hand_means(self):
        spec = [
            ("Pacific", 1985, [0.80, 0.90]),
            ("Pacific", 2010, [0.70, 0.74]),
            ("Mountain", 1985, [1.00, 1.10]),
            ("Mountain", 2010, [0.60, 0.62, 0.64]),
        ]
        table = make_table(*(garage(g, 0.85, garage_id=f"{div}{year}{j}",
                                    year1=year, year2=2014, division=div)
                             for div, year, gaps in spec for j, g in enumerate(gaps)))
        rows = group_summary(table, ["us_division", "model_year_bin_1"])
        assert [r.key for r in rows] == [
            ("Mountain", "1984-1988"), ("Mountain", "2009-2014"),
            ("Pacific", "1984-1988"), ("Pacific", "2009-2014")]
        means = {r.key: r.mean_gap_1 for r in rows}
        assert means[("Pacific", "1984-1988")] == pytest.approx(0.85)
        assert means[("Mountain", "2009-2014")] == pytest.approx(0.62)

    def test_means_match_row_loop_to_the_bit(self):
        rng = np.random.default_rng(5)
        rows = [garage(0.6 + 0.5 * rng.uniform(), 0.6 + 0.5 * rng.uniform(), garage_id=f"g{i}",
                       year1=int(rng.integers(1984, 2015)), year2=2015,
                       division=str(rng.choice(["Pacific", "Mountain", "New England"])))
                for i in range(300)]
        table = make_table(*rows)
        # reference: the per-row loop, each group's gaps listed in file order
        groups = {}
        for division, year, (gap_1, gap_2) in zip(table.us_division.tolist(),
                                                  table.model_year[:, 0].tolist(),
                                                  table.gap.tolist()):
            groups.setdefault((division, model_year_bin(year)), []).append((gap_1, gap_2))
        rows = group_summary(table, ["us_division", "model_year_bin_1"])
        assert [r.key for r in rows] == sorted(groups)
        for r in rows:
            members = groups[r.key]
            assert r.n == len(members)
            assert r.mean_gap_1 == float(np.mean([g[0] for g in members]))
            assert r.mean_gap_2 == float(np.mean([g[1] for g in members]))

    def test_year_bins(self):
        assert model_year_bin(1984) == "1984-1988"
        assert model_year_bin(2003) == "1999-2003"
        assert model_year_bin(2014) == "2009-2014"
        assert model_year_bin(1970) == "outside"
