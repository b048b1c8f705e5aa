import math

import numpy as np
import pytest

from fuelgap.criteria import (
    CriteriaInput,
    effect_summary,
    rank_models,
    score_criteria,
)
from fuelgap.errors import SpecError

# Published reference rows for normally distributed random coefficients:
# (name, mu, sigma, range_lower, range_upper, pct_above, pct_below).
# Three rows are flagged transposed=True: their printed above/below shares
# contradict the sign of mu (a normal with mu > 0 must put more than half
# of its mass above zero), so the printed pair is read swapped.
REFERENCE_EFFECT_ROWS = [
    ("v1 odometer & fuel purchase diary", -0.02851, 0.0434, -0.1153, 0.0583, 25.57, 74.43, False),
    ("v1 gasoline", 0.01294, 0.0521, -0.0913, 0.1172, 59.81, 40.19, False),
    ("v1 automatic (gears < 7 speed)", -0.03870, 0.0275, -0.0937, 0.0163, 7.97, 92.03, False),
    ("v1 subcompact", -0.03722, 0.0505, -0.1382, 0.0638, 23.06, 76.94, False),
    ("v1 two-seaters", 0.01411, 0.0284, -0.0427, 0.0709, 69.04, 30.96, False),
    ("v1 chrysler", -0.00537, 0.0526, -0.1106, 0.0998, 45.94, 54.06, False),
    ("v1 turbo", 0.03358, 0.0349, -0.0362, 0.1034, 16.80, 83.20, True),
    ("v2 gasoline", -0.02033, 0.0624, -0.1451, 0.1044, 37.23, 62.77, False),
    ("v2 rear-wheel drive", 0.00798, 0.0461, -0.0842, 0.1002, 56.87, 43.13, False),
    ("v2 two-seaters", 0.01856, 0.0574, -0.0963, 0.1334, 37.32, 62.68, True),
    ("v2 ford", -0.01891, 0.0432, -0.1053, 0.0675, 33.08, 66.92, False),
    ("v2 gm", -0.01135, 0.0594, -0.1301, 0.1074, 42.43, 57.57, False),
    ("v2 chrysler", -0.02114, 0.0676, -0.1564, 0.1141, 37.72, 62.28, False),
    ("v2 vw", 0.01062, 0.0513, -0.0920, 0.1133, 41.80, 58.20, True),
]


class TestScoreCriteria:
    def test_aic_direct(self):
        scores = score_criteria(CriteriaInput(loglik=100.0, k=5, n=50))
        assert scores.aic == -190.0

    def test_sbic_caic_at_n_e_squared(self):
        scores = score_criteria(CriteriaInput(loglik=0.0, k=1, n=math.e ** 2))
        assert scores.sbic == pytest.approx(2.0, abs=1e-12)
        assert scores.caic == pytest.approx(3.0, abs=1e-12)

    def test_icomp_identity_fisher(self):
        scores = score_criteria(CriteriaInput(loglik=12.5, k=4, n=30,
                                              fisher_inverse=np.eye(4)))
        assert scores.icomp == pytest.approx(-25.0, abs=1e-12)

    def test_icomp_scale_cancellation(self):
        for c in (1e-6, 0.5, 3.0, 1e4):
            scores = score_criteria(CriteriaInput(loglik=7.0, k=3, n=100,
                                                  fisher_inverse=c * np.eye(3)))
            assert scores.icomp == pytest.approx(-14.0, abs=1e-9)

    def test_icomp_general_matrix(self):
        f = np.array([[2.0, 0.3], [0.3, 1.0]])
        scores = score_criteria(CriteriaInput(loglik=0.0, k=2, n=10, fisher_inverse=f))
        expect = 2 * np.log(np.trace(f) / 2) - np.log(np.linalg.det(f))
        assert scores.icomp == pytest.approx(expect, abs=1e-12)

    def test_icomp_omitted_without_fisher(self):
        scores = score_criteria(CriteriaInput(loglik=1.0, k=2, n=10))
        assert scores.icomp is None
        assert "no parameter covariance" in scores.icomp_note

    def test_icomp_flagged_on_non_pd(self):
        f = np.array([[1.0, 2.0], [2.0, 1.0]])
        scores = score_criteria(CriteriaInput(loglik=1.0, k=2, n=10, fisher_inverse=f))
        assert scores.icomp is None
        assert "not positive definite" in scores.icomp_note
        assert np.isfinite(scores.aic) and np.isfinite(scores.sbic)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_icomp_omitted_on_non_finite(self, entry):
        f = np.eye(2)
        f[0, 0] = entry
        scores = score_criteria(CriteriaInput(loglik=1.0, k=2, n=10, fisher_inverse=f))
        assert scores.icomp is None
        assert "non-finite" in scores.icomp_note

    def test_monotone_in_k(self):
        for criterion in ("aic", "caic", "sbic"):
            vals = [score_criteria(CriteriaInput(loglik=10.0, k=k, n=100)).value(criterion)
                    for k in range(1, 12)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_aic_difference_invariant_to_loglik_shift(self):
        a = CriteriaInput(loglik=10.0, k=3, n=50)
        b = CriteriaInput(loglik=25.0, k=5, n=50)
        base = score_criteria(a).aic - score_criteria(b).aic
        for shift in (-100.0, 17.5, 1e4):
            sa = score_criteria(CriteriaInput(loglik=10.0 + shift, k=3, n=50)).aic
            sb = score_criteria(CriteriaInput(loglik=25.0 + shift, k=5, n=50)).aic
            assert sa - sb == pytest.approx(base, abs=1e-8)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            CriteriaInput(loglik=0.0, k=0, n=10)
        with pytest.raises(ValueError):
            CriteriaInput(loglik=0.0, k=2, n=0)
        with pytest.raises(ValueError):
            CriteriaInput(loglik=0.0, k=2, n=10, fisher_inverse=np.eye(3))


class TestRankModels:
    def test_loglik_dominance(self):
        ranking = rank_models([
            ("low", CriteriaInput(loglik=10.0, k=4, n=100, fisher_inverse=np.eye(4))),
            ("high", CriteriaInput(loglik=20.0, k=4, n=100, fisher_inverse=np.eye(4))),
        ])
        assert all(ranking.winners[c] == "high" for c in ("aic", "caic", "sbic", "icomp"))
        assert ranking.order[0] == "high"

    def test_penalty_monotonicity(self):
        ranking = rank_models([
            ("lean", CriteriaInput(loglik=15.0, k=5, n=100)),
            ("fat", CriteriaInput(loglik=15.0, k=6, n=100)),
        ])
        assert all(ranking.winners[c] == "lean" for c in ("aic", "caic", "sbic"))

    def test_requires_two_fits(self):
        with pytest.raises(ValueError):
            rank_models([("only", CriteriaInput(loglik=1.0, k=1, n=10))])

    def test_repeated_labels_are_refused(self):
        with pytest.raises(ValueError, match="fit labels must be distinct"):
            rank_models([("a", CriteriaInput(loglik=1.0, k=1, n=10)),
                         ("a", CriteriaInput(loglik=2.0, k=1, n=10))])

    def test_fits_of_different_samples_are_refused(self):
        # information criteria compare models only on the same data
        with pytest.raises(SpecError, match="different samples.*a has n=100, b has n=50"):
            rank_models([
                ("a", CriteriaInput(loglik=10.0, k=4, n=100)),
                ("b", CriteriaInput(loglik=20.0, k=4, n=50)),
            ])

    def test_tie_break_by_k_then_label(self):
        ranking = rank_models([
            ("b", CriteriaInput(loglik=10.0 + 3 * np.log(100) / 2, k=3, n=100)),
            ("a", CriteriaInput(loglik=10.0 + 3 * np.log(100) / 2, k=3, n=100)),
        ])
        assert ranking.order == ("a", "b")

    def test_text_table_marks_winners(self):
        ranking = rank_models([
            ("worse", CriteriaInput(loglik=1.0, k=2, n=50)),
            ("better", CriteriaInput(loglik=9.0, k=2, n=50)),
        ])
        text = ranking.render_text()
        assert "better" in text and "*" in text


class TestEffectSummary:
    def test_symmetric_at_zero_mean(self):
        s = effect_summary("x", 0.0, 0.25)
        assert s.share_above_zero == 0.5
        assert (s.range_lower, s.range_upper) == (-0.5, 0.5)

    def test_shares_sum_to_one_exactly(self):
        for mu, sigma in [(-0.3, 0.1), (0.02, 0.05), (1.4, 2.0)]:
            s = effect_summary("x", mu, sigma)
            assert s.share_above_zero + s.share_below_zero == 1.0

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            effect_summary("x", 0.1, 0.0)

    @pytest.mark.parametrize(
        "name,mu,sigma,lo,hi,above,below,transposed", REFERENCE_EFFECT_ROWS)
    def test_reference_rows_reproduce(self, name, mu, sigma, lo, hi, above,
                                      below, transposed):
        s = effect_summary(name, mu, sigma)
        printed_above, printed_below = (below, above) if transposed else (above, below)
        assert 100 * s.share_above_zero == pytest.approx(printed_above, abs=0.05)
        assert 100 * s.share_below_zero == pytest.approx(printed_below, abs=0.05)
        assert s.range_lower == pytest.approx(lo, abs=5e-4)
        assert s.range_upper == pytest.approx(hi, abs=5e-4)

    def test_transposed_rows_are_provably_inconsistent(self):
        # the three flagged rows have mu > 0 yet a printed above-share < 50%,
        # impossible for any normal distribution
        for name, mu, sigma, lo, hi, above, below, transposed in REFERENCE_EFFECT_ROWS:
            if transposed:
                assert mu > 0 and above < 50.0
            else:
                assert (mu > 0) == (above > 50.0)
