import hashlib
import tracemalloc

import numpy as np
import pytest

from scipy.special import ndtri

from fuelgap.errors import FuelGapError
from fuelgap.halton import (
    DrawStore,
    HaltonConfig,
    _inverse_normal_cdf_array,
    _radical_inverse_block,
    build_draw_store,
    first_primes,
    radical_inverse,
)

# Oracle: mpmath.erfinv at 40 digits, evaluated at the exact double inputs.
PHI_INV_ORACLE = [
    (1e-12, -7.0344838253011319),
    (1e-09, -5.9978070150076869),
    (1e-06, -4.753424308822899),
    (0.001, -3.0902323061678135),
    (0.025, -1.9599639845400542),
    (0.1, -1.2815515655446004),
    (0.3, -0.52440051270804082),
    (0.5, 0.0),
    (0.7, 0.52440051270804066),
    (0.9, 1.2815515655446006),
    (0.975, 1.9599639845400539),
    (0.999, 3.0902323061678133),
    (0.999999, 4.7534243088170878),
    (0.999999999, 5.9978070196016374),
    (0.999999999999, 7.0344869100478352),
]


def where_quantile(u):
    """The normal quantile by the lower half and a flip, written with
    np.where: the reference for the draw store's in-place fold."""
    u = np.asarray(u, dtype=float)
    flip = u > 0.5
    x = ndtri(np.where(flip, 1.0 - u, u))
    return np.where(flip, -x, x)


def fold(u):
    """_inverse_normal_cdf_array on a copy of u, into a fresh array."""
    u = np.array(u, dtype=float)
    return _inverse_normal_cdf_array(u, np.empty_like(u))


class TestRadicalInverse:
    def test_base2_hand_values(self):
        # Digit reversal of 1,2,3,4 in binary: 0.1, 0.01, 0.11, 0.001.
        assert [radical_inverse(i, 2) for i in (1, 2, 3, 4)] == [0.5, 0.25, 0.75, 0.125]

    def test_base3_hand_values(self):
        assert radical_inverse(1, 3) == pytest.approx(1 / 3, abs=1e-15)
        assert radical_inverse(2, 3) == pytest.approx(2 / 3, abs=1e-15)

    def test_open_interval(self):
        for base in (2, 3, 5, 7, 11):
            for index in range(1, 200):
                assert 0.0 < radical_inverse(index, base) < 1.0

    @pytest.mark.parametrize("base,m", [(2, m) for m in range(1, 7)] + [(3, 2), (5, 2)])
    def test_equidistribution_over_contiguous_ranges(self, base, m):
        # Any base^m consecutive indices put exactly one point in each of the
        # base^m equal sub-intervals of (0, 1).
        span = base ** m
        for start in (1, 5, span + 3, 1000):
            pts = [radical_inverse(i, base) for i in range(start, start + span)]
            # Points may sit exactly on a cell edge (e.g. 1/3 in base 3) and
            # belong to the upper cell; nudge past float rounding of the edge.
            cells = np.floor(np.array(pts) * span + 1e-9).astype(int)
            assert sorted(cells) == list(range(span))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            radical_inverse(0, 2)
        with pytest.raises(ValueError):
            radical_inverse(1, 4)
        with pytest.raises(ValueError):
            radical_inverse(1, 1)


def digit_loop_block(start, count, base):
    """Every digit term of every index added in turn, lowest digit first."""
    idx = np.arange(start, start + count, dtype=np.int64)
    value = np.zeros(count)
    scale = 1.0
    while idx.any():
        scale /= base
        value += scale * (idx % base)
        idx //= base
    return value


class TestRadicalInverseBlock:
    # the block adds its low digits from a table of at most 4096 entries;
    # 4099 is a prime above the table size
    @pytest.mark.parametrize("base", [2, 3, 5, 7, 4099])
    @pytest.mark.parametrize("start,count", [
        (1, 1),                      # a single index
        (4093, 1),
        (2 ** 12 - 5, 2 ** 13 + 9),  # straddles several 4096-entry tables
        (3 ** 7 * 2 - 3, 5000),      # straddles 2187-entry tables (base 3)
        (51, 4097),                  # the draw-store start, not table-aligned
        (2 ** 32 + 12345, 300),      # indices above 2**32
        (2 ** 40 - 7, 4200),
    ])
    def test_equals_scalar_radical_inverse(self, base, start, count):
        got = _radical_inverse_block(start, count, base)
        expect = [radical_inverse(i, base) for i in range(start, start + count)]
        assert got.shape == (count,)
        assert got.tolist() == expect

    def test_draw_store_bits_match_digit_loop(self):
        cfg = HaltonConfig(bases=(2, 3), draws_per_obs=400)
        z = np.empty((2000, 400, 2))
        for dim, base in enumerate(cfg.bases):
            u = digit_loop_block(cfg.burn + 1, 2000 * 400, base)
            z[:, :, dim] = where_quantile(u).reshape(2000, 400)
        assert build_draw_store(2000, cfg).z.tobytes() == z.tobytes()


class TestHaltonBlock:
    # the draw store's per-observation (R, d) blocks, read in observation order
    def test_blocks_tile_the_sequence(self):
        cfg = HaltonConfig(bases=(2, 3), draws_per_obs=5, burn=7)
        stacked = build_draw_store(10, cfg).z.reshape(50, 2)
        for d, base in enumerate(cfg.bases):
            u = [radical_inverse(cfg.burn + j, base) for j in range(1, 51)]
            assert stacked[:, d].tobytes() == where_quantile(u).tobytes()


class TestHaltonConfig:
    def test_rejects_duplicate_or_composite_bases(self):
        with pytest.raises(ValueError):
            HaltonConfig(bases=(2, 2))
        with pytest.raises(ValueError):
            HaltonConfig(bases=(2, 9))
        with pytest.raises(ValueError):
            HaltonConfig(bases=())

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            HaltonConfig(bases=(2,), draws_per_obs=0)
        with pytest.raises(ValueError):
            HaltonConfig(bases=(2,), burn=-1)
        # a setting that is not an integer is refused, not truncated
        with pytest.raises(ValueError, match=r"bases must be integral, got \(2.7, 3\)"):
            HaltonConfig(bases=(2.7, 3))
        with pytest.raises(ValueError, match="draws_per_obs must be integral, got 2.5"):
            HaltonConfig(bases=(2,), draws_per_obs=2.5)
        with pytest.raises(ValueError, match="burn must be integral, got 1.0"):
            HaltonConfig(bases=(2,), burn=1.0)
        cfg = HaltonConfig(bases=(np.int64(2), np.int32(3)), draws_per_obs=np.int64(5),
                           burn=np.int16(0))
        assert (cfg.bases, cfg.draws_per_obs, cfg.burn) == ((2, 3), 5, 0)

    def test_first_primes(self):
        assert first_primes(6) == (2, 3, 5, 7, 11, 13)
        assert first_primes(0) == ()
        with pytest.raises(ValueError, match="count must be >= 0"):
            first_primes(-1)


class TestInverseNormalCdf:
    def test_against_high_precision_oracle(self):
        u, expect = np.array(PHI_INV_ORACLE).T
        np.testing.assert_allclose(fold(u), expect, rtol=0, atol=1e-9)

    def test_median(self):
        # ndtri(0.5) is +0.0, and so is the fold's: compare bytes, since
        # -0.0 == 0.0
        assert fold([0.5]).tobytes() == np.float64(0.0).tobytes()
        assert where_quantile([0.5]).tobytes() == np.float64(0.0).tobytes()

    def test_symmetry(self):
        # u chosen with exact binary complements so the identity is exact
        u = np.arange(1, 512) / 1024.0
        assert (fold(u) == -fold(1.0 - u)).all()

    def test_extreme_uniforms_are_exact_negatives(self):
        # 1 - 2**-53 is the largest double below 1; its complement is exact
        low, high = fold([2.0 ** -53, 1.0 - 2.0 ** -53])
        assert high == -low and low < -8.0
        tiny = 5e-324   # the smallest subnormal: 1 - tiny rounds to 1
        assert fold([tiny, 1.0 - 2.0 ** -53, 0.5 + 2.0 ** -53]).tobytes() == \
            where_quantile([tiny, 1.0 - 2.0 ** -53, 0.5 + 2.0 ** -53]).tobytes()

    def test_fold_equals_the_where_formula(self):
        # both halves, the median and its neighbours, 0.25, the lower end
        # of the range where u - 0.5 is exact (Sterbenz), and Halton points
        u = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 10001),
                            np.nextafter(0.5, [0.0, 1.0]), [0.25, 0.75],
                            _radical_inverse_block(51, 5000, 7)])
        assert fold(u).tobytes() == where_quantile(u).tobytes()

    def test_round_trip_through_normal_cdf(self):
        from scipy.special import ndtr

        u = np.linspace(0.001, 0.999, 997)
        np.testing.assert_allclose(ndtr(fold(u)), u, atol=1e-12)


class TestDrawStore:
    def test_single_median_draw(self):
        store = build_draw_store(1, HaltonConfig(bases=(2,), draws_per_obs=1, burn=0))
        assert store.z[0, 0, 0] == 0.0

    def test_deterministic_rebuild(self):
        cfg = HaltonConfig(bases=(2, 3), draws_per_obs=50, burn=50)
        a = build_draw_store(20, cfg)
        b = build_draw_store(20, cfg)
        assert hashlib.sha256(a.z.tobytes()).digest() == hashlib.sha256(b.z.tobytes()).digest()

    def test_immutable(self):
        store = build_draw_store(2, HaltonConfig(bases=(2,), draws_per_obs=3))
        with pytest.raises(ValueError):
            store.z[0, 0, 0] = 1.0

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_one_contiguous_read_only_plane_per_dimension(self, d):
        store = build_draw_store(30, HaltonConfig(bases=first_primes(d), draws_per_obs=7))
        assert store.z.shape == (30, 7, d)
        for k in range(d):
            assert store.z[:, :, k].flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                store.z[:, :, k][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store.z[...] = 0.0

    def test_bytes_equal_the_where_formula(self):
        # rp_wide's store: N=2000, R=200, bases 2, 3, 5, 7, in the
        # interleaved (obs, draw, dim) order that tobytes reads
        cfg = HaltonConfig(bases=(2, 3, 5, 7), draws_per_obs=200)
        z = np.empty((2000, 200, 4))
        for dim, base in enumerate(cfg.bases):
            u = _radical_inverse_block(cfg.burn + 1, 2000 * 200, base)
            z[:, :, dim] = where_quantile(u).reshape(2000, 200)
        assert build_draw_store(2000, cfg).z.tobytes() == z.tobytes()

    def test_matches_blocks(self):
        # observation i owns indices burn + i*R + 1 ... burn + (i+1)*R of
        # each base: every cell is the scalar oracle's point, bit for bit
        cfg = HaltonConfig(bases=(2, 3), draws_per_obs=8, burn=13)
        z = build_draw_store(5, cfg).z
        r = cfg.draws_per_obs
        for i in range(5):
            for j in range(r):
                for d, base in enumerate(cfg.bases):
                    u = radical_inverse(cfg.burn + i * r + j + 1, base)
                    assert z[i, j, d] == where_quantile([u])[0]

    @pytest.mark.parametrize("burn,uniforms", [(0, [[0.5, 0.25], [0.75, 0.125]]),
                                               (2, [[0.75, 0.125], [0.625, 0.375]])],
                             ids=["burn-0", "burn-2"])
    def test_hand_values_base2(self, burn, uniforms):
        # two observations of two draws, cut after `burn` points
        store = build_draw_store(2, HaltonConfig(bases=(2,), draws_per_obs=2, burn=burn))
        assert store.z.shape == (2, 2, 1)
        assert store.z[:, :, 0].tolist() == where_quantile(uniforms).tolist()

    def test_memory_cap(self):
        # 2**20 x 1000 doubles is 8 GiB: refused before anything is allocated
        cfg = HaltonConfig(bases=(2,), draws_per_obs=1000)
        with pytest.raises(FuelGapError, match="bytes"):
            build_draw_store(2 ** 20, cfg)

    @pytest.mark.parametrize("bases", [(2,), (2, 3)])
    def test_over_cap_store_allocates_nothing(self, bases):
        # one observation beyond the cap, whatever the dimension: numpy
        # reports its buffers to tracemalloc, and the refusal allocates none
        d, r = len(bases), 1024
        n = 2 ** 30 // (8 * d * r) + 1
        assert n * r * d * 8 > 2 ** 30 >= (n - 1) * r * d * 8
        tracemalloc.start()
        try:
            with pytest.raises(FuelGapError, match="above the cap"):
                build_draw_store(n, HaltonConfig(bases=bases, draws_per_obs=r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_moments(self):
        # Stratified uniforms keep the first two sample moments very tight.
        cfg = HaltonConfig(bases=(2,), draws_per_obs=400, burn=50)
        store = build_draw_store(1000, cfg)
        z = store.z.ravel()
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_kolmogorov_smirnov_distance(self):
        from scipy.special import ndtr

        cfg = HaltonConfig(bases=(2,), draws_per_obs=100, burn=50)
        z = np.sort(build_draw_store(1000, cfg).z.ravel())
        n = z.size
        assert n >= 10 ** 5
        cdf = ndtr(z)
        upper = np.max(np.arange(1, n + 1) / n - cdf)
        lower = np.max(cdf - np.arange(0, n) / n)
        assert max(upper, lower) < 0.01

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            build_draw_store(0, HaltonConfig(bases=(2,)))
