from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_noise, make_sources
from oracles import (bartlett_blocks, bartlett_signals, char_poly_max_eig,
                     make_los_channelset, make_random_channelset, sample_cn_two_calls,
                     snapshot_signals, tw2_cdf_fredholm, whiten)
from risense import _tw2_table
from risense import sensing as sns
from risense.errors import InfeasibleError, NumericalError
from risense.harness import load_scenario
from risense.optimizer import Rcm, wmmse_active
from risense.rng import sample_cn, substream


def fixed_rcm(m, rng=None, mode="active", scale=1.0):
    if rng is None:
        phi = np.zeros(m, dtype=complex)
    else:
        phi = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return Rcm(phi=phi, mode=mode, a_max=np.inf)


def max_eig(x):
    """The detection statistic of snapshots x taken as already whitened."""
    return sns.max_eig_statistic(x @ x.conj().T, x.shape[1])


class TestNoiseCovariance:
    def test_zero_phi_no_interferers_is_white(self):
        ch = make_random_channelset(np.random.default_rng(0), n=4, m=3, k=0)
        r = sns.noise_covariance(ch, fixed_rcm(3), make_sources(0), make_noise())
        assert np.allclose(r, 0.1 * np.eye(4))

    def test_passive_mode_forwards_no_noise(self):
        rng = np.random.default_rng(1)
        ch = make_random_channelset(rng, n=4, m=3, k=0)
        rcm = fixed_rcm(3, rng, mode="passive-relaxed", scale=0.3)
        r = sns.noise_covariance(ch, rcm, make_sources(0), make_noise(sigma1_sq=5.0))
        assert np.allclose(r, 0.1 * np.eye(4))

    def test_hermitian_psd(self, rng):
        ch = make_random_channelset(rng, n=5, m=4, k=2)
        r = sns.noise_covariance(ch, fixed_rcm(4, rng), make_sources(2, zeta=0.7), make_noise())
        assert np.allclose(r, r.conj().T, rtol=1e-12)
        assert np.linalg.eigvalsh(r)[0] >= 0.1 - 1e-12 * np.linalg.norm(r)

    def test_matches_monte_carlo_sample_covariance(self):
        rng = np.random.default_rng(42)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        rcm = fixed_rcm(3, rng, scale=0.5)
        src, noise = make_sources(1, zeta=0.6), make_noise()
        r = sns.noise_covariance(ch, rcm, src, noise)
        acc = np.zeros((4, 4), dtype=complex)
        intervals, t = 4000, 250
        for i in range(intervals):
            y = snapshot_signals(ch, rcm, src, noise, "h0", t, (99, i))
            acc += y @ y.conj().T
        emp = acc / (intervals * t)
        assert np.linalg.norm(emp - r, "fro") <= 0.02 * np.linalg.norm(r, "fro")


class TestSampleSignals:
    """The Bartlett draw of a sensing interval's whitened Gram blocks (W0, v, ||s0||^2),
    forced on every activity draw (oracles.bartlett_blocks)."""

    def test_h0_pure_awgn_covariance(self):
        ch = make_random_channelset(np.random.default_rng(2), n=4, m=3, k=0)
        w0, v, s2 = bartlett_blocks(ch, fixed_rcm(3), make_sources(0), make_noise(), "h0",
                                       200_000, 5)
        assert v is None and s2 == 0.0
        assert np.linalg.norm(w0 / 200_000 - np.eye(4), "fro") <= 0.02 * 2

    def test_h1_with_zero_primary_power_matches_h0(self):
        rng = np.random.default_rng(3)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src = make_sources(1, p0=0.0, zeta=0.5)
        noise = make_noise()
        rcm = fixed_rcm(3, rng, scale=0.3)
        w0, _, _ = bartlett_blocks(ch, rcm, src, noise, "h0", 1000, 7)
        w1, v, s2 = bartlett_blocks(ch, rcm, src, noise, "h1", 1000, 7)
        assert np.array_equal(w0, w1)  # same stream: the primary's row is drawn last
        assert not v.any() and s2 == 0.0  # no primary contribution

    def test_h1_sample_covariance_matches_analytic(self):
        rng = np.random.default_rng(4)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        rcm = fixed_rcm(3, rng, scale=0.4)
        src, noise = make_sources(1), make_noise()
        q_inv = sns.psd_sqrt_inverse(sns.noise_covariance(ch, rcm, src, noise))
        b = q_inv @ sns.equivalent_channels(ch, rcm.phi)[0]
        target = np.eye(4) + src.p[0] * np.outer(b, b.conj())
        w0, v, s2 = bartlett_blocks(ch, rcm, src, noise, "h1", 100_000, 11)
        bv = np.outer(b, v.conj())
        emp = (w0 + bv + bv.conj().T + s2 * np.outer(b, b.conj())) / 100_000
        assert np.linalg.norm(emp - target, "fro") <= 0.02 * np.linalg.norm(target, "fro")
        assert s2 / 100_000 == pytest.approx(src.p[0], rel=0.02)

    def test_mean_is_t_times_the_whitened_covariance(self):
        # E[W0] = T Q^-1 R Q^-1 over the activity draws; any Hermitian Q^-1 will do
        rng = np.random.default_rng(8)
        ch = make_random_channelset(rng, n=4, m=3, k=2)
        rcm = fixed_rcm(3, rng, scale=0.5)
        src, noise = make_sources(2, zeta=0.4), make_noise()
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q_inv = sns.psd_sqrt_inverse(a @ a.conj().T + np.eye(4))
        target = q_inv @ sns.noise_covariance(ch, rcm, src, noise) @ q_inv
        intervals, t = 4000, 50
        acc = sum(bartlett_blocks(ch, rcm, src, noise, "h0", t, (17, i), q_inv)[0]
                  for i in range(intervals))
        assert np.linalg.norm(acc / (intervals * t) - target, "fro") \
            <= 0.02 * np.linalg.norm(target, "fro")

    def test_as_many_snapshots_as_antennas(self):
        # T = N: W has rank N, and the primary's last Bartlett diagonal is Gamma(0) = 0
        rng = np.random.default_rng(9)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src = make_sources(1)
        rcm = fixed_rcm(3, rng, scale=0.3)
        w0, v, s2 = bartlett_blocks(ch, rcm, src, make_noise(), "h1", 4, 3)
        w = np.block([[w0, v[:, np.newaxis]], [v.conj()[np.newaxis, :], np.array([[s2]])]])
        lam = np.linalg.eigvalsh(w)
        assert abs(lam[0]) <= 1e-12 * lam[-1] and lam[1] > 1e-6 * lam[-1]
        for draw in (bartlett_blocks, sns.sample_signals):
            with pytest.raises(ValueError, match="n_samples >= n_antennas"):
                draw(ch, rcm, src, make_noise(), "h1", 3, 3)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        ch = make_random_channelset(rng, n=3, m=2, k=1)
        rcm = fixed_rcm(2, rng)
        args = (ch, rcm, make_sources(1, zeta=0.5), make_noise(), "h1", 64, 123)
        (w_a, v_a, s_a), (w_b, v_b, s_b) = bartlett_blocks(*args), bartlett_blocks(*args)
        assert np.array_equal(w_a, w_b) and np.array_equal(v_a, v_b) and s_a == s_b
        assert sns.sample_signals(*args) == sns.sample_signals(*args)


class TestSpikedLaguerreDraw:
    """sample_signals' tridiagonal draw, for intervals that leave R_active = R."""

    @staticmethod
    def replay(seed, k, n, t, eta):
        """The draw by hand: K + 1 uniforms, N then N - 1 gammas, and the dense B B^T."""
        rng = substream(seed, 0x51)
        rng.random(k + 1)
        diag = rng.standard_gamma(t - np.arange(n))
        sub = rng.standard_gamma(n - 1 - np.arange(n - 1))
        bidiagonal = np.diag(np.sqrt(diag)) + np.diag(np.sqrt(sub), -1)
        lams = []
        for spike in (1.0 + eta, 1.0):
            scaled = bidiagonal.copy()
            scaled[0, 0] *= np.sqrt(spike)
            lams.append(np.linalg.eigvalsh(scaled @ scaled.T)[-1] / t)
        return tuple(lams)

    @pytest.mark.parametrize("n,t", [(5, 40), (1, 30), (4, 4)])
    def test_variate_budget(self, monkeypatch, n, t):
        # N = 1 has no subdiagonal; T = N puts Gamma(1) last on the diagonal
        rng = np.random.default_rng(n + t)
        ch = make_random_channelset(rng, n=n, m=3, k=2)
        rcm = fixed_rcm(3, rng, scale=0.4)
        src, noise = make_sources(2), make_noise()

        def no_gaussians(*args):
            raise AssertionError("the tridiagonal draw drew complex Gaussians")

        monkeypatch.setattr(sns, "sample_cn", no_gaussians)
        lam1, lam0 = sns.sample_signals(ch, rcm, src, noise, "h1", t, (4, 1))
        eta = sns.population_eta(ch, rcm, src, noise)
        assert eta > 0.1
        want1, want0 = self.replay((4, 1), 2, n, t, eta)
        assert lam0 == pytest.approx(want0, rel=1e-12, abs=0)
        assert lam1 == pytest.approx(want1, rel=1e-12, abs=0)
        assert sns.sample_signals(ch, rcm, src, noise, "h0", t, (4, 1)) == (None, lam0)

    def test_silent_primary_scores_h1_as_h0(self):
        rng = np.random.default_rng(12)
        ch = make_random_channelset(rng, n=6, m=3, k=1)
        lam1, lam0 = sns.sample_signals(ch, fixed_rcm(3, rng, scale=0.4),
                                        make_sources(1, p0=0.0), make_noise(), "h1", 60, 8)
        assert lam1 == lam0

    def test_whitening_factor_is_optional(self):
        rng = np.random.default_rng(13)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        rcm = fixed_rcm(3, rng, scale=0.4)
        src, noise = make_sources(1), make_noise()
        whitening = sns.Whitening.of(ch, rcm, src, noise)
        assert sns.sample_signals(ch, rcm, src, noise, "h1", 50, 2) == \
            sns.sample_signals(ch, rcm, src, noise, "h1", 50, 2, whitening)


class TestThresholdDecisions:
    """Given a threshold, sample_signals returns its statistics' comparisons with it."""

    @pytest.mark.parametrize("zeta,p0", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.0)],
                             ids=["tridiagonal", "bartlett", "silent-primary"])
    @pytest.mark.parametrize("t_per_n", [1, 100])
    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    def test_decisions_are_the_statistics_compared(self, monkeypatch, n, t_per_n, zeta, p0):
        # thresholds at each statistic and its float neighbours send the tridiagonal
        # decisions into the band where they bisect; the detector's own threshold too
        rng = np.random.default_rng(100 * n + t_per_n)
        ch = make_random_channelset(rng, n=n, m=3, k=2)
        rcm = fixed_rcm(3, rng, scale=0.4)
        src, noise = make_sources(2, zeta=zeta, p0=p0), make_noise()
        whitening = sns.Whitening.of(ch, rcm, src, noise)
        t = t_per_n * n
        bisections = []
        top = sns._top_eigenvalue
        monkeypatch.setattr(sns, "_top_eigenvalue", lambda d, e: (bisections.append(1),
                                                                   top(d, e))[1])
        for seed in range(12):
            lam1, lam0 = sns.sample_signals(ch, rcm, src, noise, "h1", t, seed, whitening)
            del bisections[:]
            thresholds = [sns.detection_threshold(sns.DetectorConfig(n, t, 0.1))]
            for lam in (lam1, lam0):
                thresholds += [np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)]
            for gamma in thresholds:
                assert sns.sample_signals(ch, rcm, src, noise, "h1", t, seed, whitening,
                                          gamma) == (lam1 > gamma, lam0 > gamma)
                assert sns.sample_signals(ch, rcm, src, noise, "h0", t, seed, whitening,
                                          gamma) == (None, lam0 > gamma)
            # the bisection decides exactly at lambda: the band fallback ran
            assert (len(bisections) > 0) == (zeta == 1.0), (seed, bisections)

    def test_a_threshold_outside_the_band_is_decided_by_counts(self, monkeypatch):
        rng = np.random.default_rng(3)
        ch = make_random_channelset(rng, n=16, m=3, k=2)
        args = (ch, fixed_rcm(3, rng, scale=0.4), make_sources(2), make_noise())
        lam1, lam0 = sns.sample_signals(*args, "h1", 1600, 5)
        monkeypatch.setattr(sns, "_top_eigenvalue", None)  # no bisection may run
        for gamma in (lam0 * (1 - 3 * sns.BAND_RTOL), lam0 * (1 + 3 * sns.BAND_RTOL),
                      lam1 * (1 - 3 * sns.BAND_RTOL), lam1 * (1 + 3 * sns.BAND_RTOL)):
            assert sns.sample_signals(*args, "h1", 1600, 5, None, gamma) == \
                (lam1 > gamma, lam0 > gamma)


class TestOneDrawPerInterval:
    """sample_signals draws the interval's activity once, on one generator, and scores
    the path that draw selects; a zeta strictly inside (0, 1) selects the Bartlett path."""

    @staticmethod
    def interval(seed, zeta):
        rng = np.random.default_rng(seed)
        ch = make_random_channelset(rng, n=4, m=3, k=2)
        return ch, fixed_rcm(3, rng, scale=0.4), make_sources(2, zeta=zeta), make_noise()

    @pytest.mark.parametrize("zeta,bartlett_draws", [(1.0, 0), (0.5, 1)])
    def test_one_substream_per_call(self, monkeypatch, zeta, bartlett_draws):
        streams, blocks = [], []
        substream_of, gram_blocks = sns.substream, sns.gram_blocks

        def counted_substream(*args):
            streams.append(args)
            return substream_of(*args)

        def counted_blocks(*args):
            blocks.append(args)
            return gram_blocks(*args)

        monkeypatch.setattr(sns, "substream", counted_substream)
        monkeypatch.setattr(sns, "gram_blocks", counted_blocks)
        sns.sample_signals(*self.interval(14, zeta), "h1", 50, (6, 1))
        assert streams == [((6, 1), 0x51)]
        assert len(blocks) == bartlett_draws

    def test_bartlett_branch_scores_h0_as_in_the_joint_call(self):
        args = self.interval(15, 0.5)
        lam1, lam0 = sns.sample_signals(*args, "h1", 40, 9)
        assert lam1 is not None and lam1 != lam0
        assert sns.sample_signals(*args, "h0", 40, 9) == (None, lam0)

    def test_bartlett_branch_is_the_forced_bartlett_sampler(self):
        # on a draw that moves R_active off R, sample_signals and the oracle coincide
        args = self.interval(16, 0.5)
        for seed in range(5):
            assert sns.sample_signals(*args, "h1", 40, seed) == \
                bartlett_signals(*args, "h1", 40, seed)

    def test_gram_blocks_draw_the_primary_row_last(self):
        # by hand: N gammas and N(N-1)/2 Gaussians for the N x N block, then the row
        n, t, p0 = 3, 20, 2.0
        w0, v, s2 = sns.gram_blocks(substream(7, 0x51), np.eye(n, dtype=complex), p0, t)
        rng = substream(7, 0x51)
        bartlett = np.diag(np.sqrt(rng.standard_gamma(t - np.arange(n)))).astype(complex)
        bartlett[np.tril_indices(n, -1)] = sample_cn(rng, 1.0, n * (n - 1) // 2)
        row = sample_cn(rng, p0, n)
        assert np.allclose(w0, bartlett @ bartlett.conj().T, rtol=1e-12, atol=0)
        assert np.allclose(v, bartlett @ row.conj(), rtol=1e-12, atol=0)
        assert s2 == pytest.approx(np.vdot(row, row).real + p0 * rng.standard_gamma(t - n),
                                   rel=1e-12, abs=0)

    def test_indefinite_covariance_rejected(self):
        c = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(NumericalError, match="not positive definite"):
            sns.gram_blocks(substream(1, 0x51), c, 1.0, 10)


class TestSampleCn:
    @pytest.mark.parametrize("shape", [7, np.int64(7), (7,), (3, 5)])
    def test_bytes_equal_the_two_call_form(self, shape):
        fast = sample_cn(substream(5, 1), 0.3, shape)
        two_calls = sample_cn_two_calls(substream(5, 1), 0.3, shape)
        assert fast.shape == two_calls.shape and fast.dtype == two_calls.dtype
        assert fast.tobytes() == two_calls.tobytes()


class TestGram:
    def test_whitened_gram_is_the_gram_of_whitened_snapshots(self, rng):
        y = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = a @ a.conj().T + 0.1 * np.eye(5)
        x = whiten(y, r)
        assert np.allclose(sns.whiten(y @ y.conj().T, sns.psd_sqrt_inverse(r)), x @ x.conj().T,
                           rtol=1e-10, atol=0)


class TestWhiten:
    def test_scalar_covariance(self):
        y = np.ones((3, 5), dtype=complex)
        x = whiten(y, 4.0 * np.eye(3))
        assert np.allclose(x, y / 2.0)

    def test_sqrt_contract(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = a @ a.conj().T + 0.1 * np.eye(5)
        q_inv = sns.psd_sqrt_inverse(r)
        q = np.linalg.inv(q_inv)
        assert np.linalg.norm(q @ q - r) <= 1e-10 * np.linalg.norm(r)

    def test_whitened_h0_covariance_is_identity(self):
        rng = np.random.default_rng(6)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        rcm = fixed_rcm(3, rng, scale=0.5)
        src, noise = make_sources(1), make_noise()
        w0, _, _ = bartlett_blocks(ch, rcm, src, noise, "h0", 200_000, 13)
        assert np.linalg.norm(w0 / 200_000 - np.eye(4), "fro") <= 0.02 * 2

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            whiten(np.ones((2, 2), dtype=complex), np.diag([1.0, -1.0]))


class TestMaxEigStatistic:
    def test_zero_input(self):
        assert max_eig(np.zeros((3, 10), dtype=complex)) == 0.0

    def test_scalar_case_is_mean_power(self, rng):
        x = rng.standard_normal((1, 50)) + 1j * rng.standard_normal((1, 50))
        assert max_eig(x) == pytest.approx(np.mean(np.abs(x) ** 2))

    def test_matches_characteristic_polynomial_oracle(self, rng):
        for _ in range(20):
            x = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
            s = (x @ x.conj().T) / 12
            lam = max_eig(x)
            assert lam == pytest.approx(char_poly_max_eig(s), rel=1e-9)


class TestTracyWidom:
    def test_published_anchor_quantiles(self):
        # classic order-2 values: 90/95/99 percent points
        assert sns.tw2_quantile(0.90) == pytest.approx(-0.59685, abs=2e-4)
        assert sns.tw2_quantile(0.95) == pytest.approx(-0.23247, abs=2e-4)
        assert sns.tw2_quantile(0.99) == pytest.approx(0.47764, abs=2e-4)

    def test_quantile_inverts_fredholm_cdf(self):
        for p in [0.05, 0.3, 0.5, 0.9, 0.95, 0.99, 0.999]:
            q = sns.tw2_quantile(p)
            assert tw2_cdf_fredholm(q) == pytest.approx(p, abs=2e-6)

    def test_table_matches_fredholm_on_spot_checks(self):
        grid, cdf = _tw2_table.S_GRID, _tw2_table.CDF
        for i in [0, 137, 400, 800, len(grid) - 1]:
            assert cdf[i] == pytest.approx(tw2_cdf_fredholm(grid[i]), abs=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(0.001, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, p, dp):
        if p + dp < 0.995:
            assert sns.tw2_quantile(p) < sns.tw2_quantile(p + dp)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            sns.tw2_quantile(1e-30)

    def test_second_threshold_runs_no_root_find(self, monkeypatch):
        # tw2_quantile is memoized per probability: one root find per alpha and process
        cfg = sns.DetectorConfig(n_antennas=32, n_samples=3200, alpha=0.1)
        sns.tw2_quantile.cache_clear()
        calls, brentq = [], sns.brentq
        monkeypatch.setattr(sns, "brentq", lambda *a, **kw: (calls.append(a), brentq(*a, **kw))[1])
        first = sns.detection_threshold(cfg)
        assert len(calls) == 1
        assert sns.detection_threshold(cfg) == first and len(calls) == 1


class TestDetectionThreshold:
    def test_full_scale_value(self):
        cfg = sns.DetectorConfig(n_antennas=64, n_samples=6400, alpha=0.1)
        # N^(-2/3)(1.1)^(4/3) * 0.1 * F2^-1(0.9) + 1.21 with the true quantile
        expected = 0.0625 * 1.1 ** (4 / 3) * 0.1 * tw2_cdf_inverse_oracle(0.9) + 1.21
        assert sns.detection_threshold(cfg) == pytest.approx(expected, rel=1e-7)
        assert sns.detection_threshold(cfg) == pytest.approx(1.2057642, rel=1e-6)

    def test_smaller_alpha_larger_threshold(self):
        a = sns.detection_threshold(sns.DetectorConfig(32, 3200, 0.1))
        b = sns.detection_threshold(sns.DetectorConfig(32, 3200, 0.05))
        assert b > a

    def test_monte_carlo_calibration_smoke(self):
        # light version of the acceptance gate: 400 trials, loose bound
        cfg = sns.DetectorConfig(n_antennas=32, n_samples=3200, alpha=0.1)
        gamma = sns.detection_threshold(cfg)
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(400):
            x = (rng.standard_normal((32, 3200)) + 1j * rng.standard_normal((32, 3200))) / np.sqrt(2)
            hits += max_eig(x) > gamma
        assert abs(hits / 400 - 0.1) < 0.05


def tw2_cdf_inverse_oracle(p: float) -> float:
    from scipy.optimize import brentq
    return brentq(lambda s: tw2_cdf_fredholm(s) - p, -8, 8, xtol=1e-10)


class TestPopulationEta:
    def test_zero_channel(self):
        ch = make_random_channelset(np.random.default_rng(8), n=4, m=3, k=0, direct=False)
        assert sns.population_eta(ch, fixed_rcm(3), make_sources(0), make_noise()) == 0.0

    def test_direct_link_only(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=0)
        src, noise = make_sources(0, p0=2.0), make_noise()
        eta = sns.population_eta(ch, fixed_rcm(3), src, noise)
        assert eta == pytest.approx(2.0 * np.linalg.norm(ch.d[0]) ** 2 / 0.1, rel=1e-12)

    def test_rational_form_consistency(self, rng):
        # no-direct-link LoS instances: eta equals the rank-one rational form
        for _ in range(20):
            n, bg = 4, 1.0
            ch = make_los_channelset(rng, n=n, m=3, k=2, beta_g=bg)
            src, noise = make_sources(2, zeta=0.8), make_noise()
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rcm = Rcm(phi=phi, mode="active", a_max=np.inf)
            eta = sns.population_eta(ch, rcm, src, noise)
            b, f0 = ch.los.b_ris, ch.f[0]
            d = noise.sigma1_sq * np.eye(3, dtype=complex)
            for k in (1, 2):
                d += src.zeta[k] * src.p[k] * np.outer(ch.f[k], ch.f[k].conj())
            d /= noise.sigma2_sq
            phi_m = np.diag(phi)
            num = n * bg * abs(b.conj() @ phi_m @ f0) ** 2
            den = 1.0 + n * bg * np.real(b.conj() @ phi_m @ d @ phi_m.conj().T @ b)
            rational = src.p[0] / noise.sigma2_sq * num / den
            assert eta == pytest.approx(rational, rel=1e-9)

    def test_unitary_invariance(self, rng):
        ch = make_random_channelset(rng, n=5, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        rcm = fixed_rcm(3, rng, scale=0.5)
        eta = sns.population_eta(ch, rcm, src, noise)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        ch2 = make_random_channelset(rng, n=5, m=3, k=1)
        object.__setattr__(ch2, "d", tuple(q @ d for d in ch.d))
        object.__setattr__(ch2, "f", ch.f)
        object.__setattr__(ch2, "g_matrix", q @ ch.g_matrix)
        eta2 = sns.population_eta(ch2, rcm, src, noise)
        assert eta2 == pytest.approx(eta, rel=1e-10)

    def test_forms_the_equivalent_channels_once(self, monkeypatch):
        calls = []
        equivalent_channels = sns.equivalent_channels
        monkeypatch.setattr(sns, "equivalent_channels",
                            lambda *a: (calls.append(a), equivalent_channels(*a))[1])
        ch = make_random_channelset(np.random.default_rng(3), n=4, m=3, k=2)
        rcm = fixed_rcm(3, np.random.default_rng(4))
        eta = sns.population_eta(ch, rcm, make_sources(2), make_noise())
        assert len(calls) == 1
        assert eta == sns.Whitening.of(ch, rcm, make_sources(2), make_noise()).eta

    def test_one_implementation(self):
        # the desk's first Rayleigh draw and its WMMSE coefficients: each entry point
        # returns the same float
        sc = load_scenario(str(Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"))
        ch, src, noise = sc.build_channels(0), sc.sources(), sc.noise()
        p_out = sc.power_model().p_out_budget(sc.ris_budget_w, sc.n_elements)
        res = wmmse_active(ch, src, noise, p_out, sc.a_max, max_iter=200)
        eta = sns.population_eta(ch, res.rcm, src, noise)
        assert eta > 0
        assert eta == sns.Whitening.of(ch, res.rcm, src, noise).eta == res.eta

    def test_singular_covariance_is_a_numerical_failure(self):
        whitening = sns.Whitening(r=np.zeros((2, 2)), h=np.ones((1, 2), dtype=complex), p0=1.0)
        with pytest.raises(NumericalError, match="noise covariance is singular"):
            whitening.eta  # noqa: B018


class TestSpikedStats:
    def test_mean_substitution(self):
        st_ = sns.spiked_stats(1.0, 0.01, 64, 2.0, 0.1)
        assert st_.mu_a == pytest.approx(2.02)

    def test_variance_substitution(self):
        st_ = sns.spiked_stats(1.0, 0.01, 64, 2.0, 0.1)
        assert st_.v_a == pytest.approx((4 / 6400) * 0.99, rel=1e-12)
        assert st_.v_a == pytest.approx(6.1875e-4, rel=1e-6)

    def test_below_transition_marks_tw_branch(self):
        st_ = sns.spiked_stats(0.05, 0.01, 64, 2.0, 0.1)
        assert not st_.gaussian_branch
        assert st_.mu_a is None and st_.v_a is None

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(11)
        n, t, eta = 32, 3200, 1.0
        scale = np.ones(n)
        scale[0] = np.sqrt(1 + eta)
        lam = np.empty(500)
        for i in range(lam.size):
            x = scale[:, None] * (rng.standard_normal((n, t))
                                  + 1j * rng.standard_normal((n, t))) / np.sqrt(2)
            lam[i] = max_eig(x)
        st_ = sns.spiked_stats(eta, n / t, n, 2.0, 0.1)
        assert lam.mean() == pytest.approx(st_.mu_a, rel=0.02)


class TestPredictedPd:
    def test_half_at_threshold(self):
        st_ = sns.SpikedStats(mu_a=1.5, v_a=1e-4, gamma_th=1.5, alpha=0.1)
        assert sns.predicted_pd(st_) == pytest.approx(0.5)

    def test_far_mean_saturates(self):
        st_ = sns.SpikedStats(mu_a=10.0, v_a=1e-4, gamma_th=1.2, alpha=0.1)
        assert sns.predicted_pd(st_) == pytest.approx(1.0, abs=1e-12)

    def test_tw_branch_returns_false_alarm_level(self):
        cfg = sns.DetectorConfig(32, 3200, 0.1)
        st_ = sns.spiked_stats_for(cfg, 0.01)
        assert not st_.gaussian_branch
        assert sns.predicted_pd(st_) == pytest.approx(0.1)

    def test_nondecreasing_in_eta(self):
        cfg = sns.DetectorConfig(32, 3200, 0.1)
        etas = np.linspace(0.11, 3.0, 120)
        pds = [sns.predicted_pd(sns.spiked_stats_for(cfg, e)) for e in etas]
        assert np.all(np.diff(pds) >= -1e-12)


class TestSolveMinEta:
    def test_roundtrip(self):
        cfg = sns.DetectorConfig(32, 3200, 0.1)
        eta0 = sns.solve_min_eta(0.9, cfg)
        assert sns.predicted_pd(sns.spiked_stats_for(cfg, eta0)) == pytest.approx(0.9, abs=1e-6)

    def test_monotone_in_target(self):
        cfg = sns.DetectorConfig(32, 3200, 0.1)
        assert sns.solve_min_eta(0.99, cfg) > sns.solve_min_eta(0.9, cfg)

    def test_agrees_with_bisection_and_golden_section_oracles(self):
        cfg = sns.DetectorConfig(64, 6400, 0.1)
        target = 0.9
        eta0 = sns.solve_min_eta(target, cfg)

        def pd(e):
            return sns.predicted_pd(sns.spiked_stats_for(cfg, e))

        lo, hi = np.sqrt(cfg.c) * 1.0001, 10.0
        for _ in range(80):  # plain bisection oracle
            mid = 0.5 * (lo + hi)
            if pd(mid) < target:
                lo = mid
            else:
                hi = mid
        eta_bisect = hi
        # golden-section oracle on |pd - target|
        gr = (np.sqrt(5) - 1) / 2
        a, b = np.sqrt(cfg.c) * 1.0001, 10.0
        c, d = b - gr * (b - a), a + gr * (b - a)
        for _ in range(200):
            # <= so that exact ties on the saturated plateau shrink from the right
            if abs(pd(c) - target) <= abs(pd(d) - target):
                b, d = d, c
                c = b - gr * (b - a)
            else:
                a, c = c, d
                d = a + gr * (b - a)
        eta_golden = 0.5 * (a + b)
        assert eta0 == pytest.approx(eta_bisect, rel=1e-6)
        assert eta0 == pytest.approx(eta_golden, rel=1e-6)

    def test_infeasible_targets_raise(self):
        cfg = sns.DetectorConfig(32, 3200, 0.1)
        with pytest.raises(InfeasibleError):
            sns.solve_min_eta(0.05, cfg)  # at/below false-alarm level
        with pytest.raises(ValueError):
            sns.solve_min_eta(1.5, cfg)
