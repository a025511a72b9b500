import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risense import channel as chan
from risense.budget import ClosedFormContext
from risense.errors import ConfigError
from risense.harness import ScenarioConfig


def los_scenario(n=8, m=4, k=0, **kw):
    geom = chan.Geometry(interferer_pos=tuple((60.0 + 5 * i, 80.0) for i in range(k)))
    return ScenarioConfig(n_antennas=n, m_h=m, m_v=1, geometry=geom,
                          p_w=tuple(1.0 for _ in range(k + 1)),
                          zeta=tuple(1.0 for _ in range(k + 1)),
                          channel_model="los", **kw)


class TestSteeringVectors:
    def test_ula_zero_angle_is_all_ones(self):
        assert np.allclose(chan.steering_vector_ula(4, 0.0), np.ones(4))

    def test_ula_pi_alternates(self):
        assert np.allclose(chan.steering_vector_ula(2, np.pi), [1, -1])

    def test_ula_half_pi_hand_value(self):
        # exp(-j m pi/2) for m = 0,1,2
        assert np.allclose(chan.steering_vector_ula(3, np.pi / 2), [1, -1j, -1])

    def test_ula_rejects_empty(self):
        with pytest.raises(ValueError):
            chan.steering_vector_ula(0, 1.0)

    def test_upa_zero_cos_elevation_is_all_ones(self):
        assert np.allclose(chan.steering_vector_upa(2, 2, 0.0, np.pi / 2), np.ones(4))

    def test_upa_collapses_to_ula(self):
        theta, psi = 0.7, 0.3
        v = chan.steering_vector_upa(2, 1, theta, psi)
        assert np.allclose(v, chan.steering_vector_ula(2, np.pi * np.sin(theta) * np.cos(psi)))

    def test_upa_ordering_convention(self):
        # horizontal factor varies slowest: a_h kron a_v
        assert np.allclose(chan.steering_vector_upa(2, 2, np.pi / 2, 0.0), [1, 1, -1, -1])

    def test_upa_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            chan.steering_vector_upa(0, 2, 0.0, 0.0)

    @pytest.mark.parametrize("m_h, m_v", [(16, 1), (4, 3), (1, 5)])
    def test_upa_is_the_kron_form_bit_for_bit(self, m_h, m_v):
        # the outer product forms np.kron's products, in its order
        theta, psi = 0.7, 0.3
        step_h, step_v = chan.upa_phase_steps(theta, psi)
        kron = np.kron(chan.steering_vector_ula(m_h, step_h),
                       chan.steering_vector_ula(m_v, step_v))
        assert np.array_equal(chan.steering_vector_upa(m_h, m_v, theta, psi), kron)
        sc = dataclasses.replace(los_scenario(k=3), m_h=m_h, m_v=m_v)
        a_f = chan.steering_factors(sc, m_h, m_v).a_f
        for row, (step_h, step_v) in zip(a_f, sc.geometry.steps):
            assert np.array_equal(row, np.kron(chan.steering_vector_ula(m_h, step_h),
                                               chan.steering_vector_ula(m_v, step_v)))

    @given(n=st.integers(1, 16), phase=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus_everywhere(self, n, phase):
        v = chan.steering_vector_ula(n, phase)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-14


class TestPathloss:
    def test_hand_value_100m(self):
        assert chan.pathloss(0.12, 100.0, 2.0) == pytest.approx(9.1189e-9, rel=1e-4)

    def test_unit_distance_removes_distance_term(self):
        assert chan.pathloss(0.12, 1.0, 2.0) == pytest.approx(0.12**2 / (4 * np.pi) ** 2)

    def test_pu_ris_link_of_default_geometry(self):
        d = np.hypot(100.0, 50.0)
        assert d == pytest.approx(111.803, abs=1e-3)
        assert chan.pathloss(0.12, d, 2.0) == pytest.approx(7.295e-9, rel=1e-3)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            chan.pathloss(0.12, 0.0, 2.0)

    @given(d1=st.floats(1.01, 1e4), scale=st.floats(1.01, 10.0), alpha=st.floats(1.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_distance_and_exponent(self, d1, scale, alpha):
        assert chan.pathloss(0.12, d1 * scale, alpha) < chan.pathloss(0.12, d1, alpha)
        assert chan.pathloss(0.12, d1 * scale, alpha + 0.5) < chan.pathloss(0.12, d1 * scale, alpha)


class TestLosChannelset:
    def test_g_is_rank_one(self):
        cs = chan.build_los_channelset(los_scenario())
        s = np.linalg.svd(cs.g_matrix, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_g_reconstructed_from_factors_bitwise(self):
        cs = chan.build_los_channelset(los_scenario(k=2))
        rebuilt = np.sqrt(cs.gains.beta_g) * np.outer(cs.los.a_su, cs.los.b_ris.conj())
        assert np.array_equal(rebuilt, cs.g_matrix)

    def test_norms_match_gains(self):
        cs = chan.build_los_channelset(los_scenario(n=8, m=4))
        assert np.linalg.norm(cs.f[0]) ** 2 == pytest.approx(4 * cs.gains.beta_f[0], rel=1e-12)
        assert np.linalg.norm(cs.g_matrix, "fro") ** 2 == pytest.approx(
            8 * 4 * cs.gains.beta_g, rel=1e-12)

    def test_direct_links_are_zero(self):
        cs = chan.build_los_channelset(los_scenario(k=1))
        for d in cs.d:
            assert np.all(d == 0)

    def test_steering_follows_a_replaced_geometry(self):
        # the primary moves from west-southwest of the surface to due south of it
        sc = los_scenario(k=2)
        moved = dataclasses.replace(sc.geometry, pu_pos=(100.0, -50.0))
        replaced = dataclasses.replace(sc, geometry=moved)
        fresh = ScenarioConfig(n_antennas=8, m_h=4, m_v=1, geometry=moved, p_w=sc.p_w,
                               zeta=sc.zeta, channel_model="los")
        for build in (chan.build_los_channelset,
                      ClosedFormContext.from_scenario):
            assert same_bytes(build(replaced), build(fresh))
            assert not same_bytes(build(replaced), build(sc))


def same_bytes(a, b) -> bool:
    """Dataclasses equal field by field, their arrays byte for byte."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same_bytes(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    return a == b


class TestRayleighChannelset:
    def test_same_seed_identical(self):
        sc = dataclasses.replace(los_scenario(k=1), channel_model="rayleigh")
        a = chan.sample_rayleigh_channelset(sc, 7)
        b = chan.sample_rayleigh_channelset(sc, 7)
        assert np.array_equal(a.g_matrix, b.g_matrix)
        assert all(np.array_equal(x, y) for x, y in zip(a.d, b.d))
        assert all(np.array_equal(x, y) for x, y in zip(a.f, b.f))
        c = chan.sample_rayleigh_channelset(sc, 8)
        assert not np.array_equal(a.g_matrix, c.g_matrix)

    def test_entry_moments_match_link_gain(self):
        sc = los_scenario(n=32, m=4)
        draws = 3200  # ~1e5 entries of d_0
        entries = np.concatenate([chan.sample_rayleigh_channelset(sc, s).d[0]
                                  for s in range(draws)])
        beta = chan.link_gains(sc.geometry, sc.pathloss).beta_d[0]
        var = np.mean(np.abs(entries) ** 2)
        assert var == pytest.approx(beta, rel=0.03)
        # zero mean within 3 sigma of the sample-mean estimator
        se = np.sqrt(beta / 2 / entries.size)
        assert abs(entries.real.mean()) < 3 * se
        assert abs(entries.imag.mean()) < 3 * se


class TestGeometry:
    def test_annulus_draw_is_seeded_and_in_range(self):
        pos1 = chan.draw_interferer_positions((100.0, 50.0), 5, 50.0, 60.0, seed=3)
        pos2 = chan.draw_interferer_positions((100.0, 50.0), 5, 50.0, 60.0, seed=3)
        assert pos1 == pos2
        radii = [np.hypot(x - 100.0, y - 50.0) for x, y in pos1]
        assert all(50.0 <= r <= 60.0 for r in radii)

    def test_distances_are_the_per_source_norms(self):
        # stored on construction, equal to one np.linalg.norm per link
        ris, su = (100.0, 50.0), (500.0, 0.0)
        positions = chan.draw_interferer_positions(ris, 5, 50.0, 60.0, seed=3)
        geom = chan.Geometry(pu_pos=(3.0, -7.5), ris_pos=ris, su_pos=su, interferer_pos=positions)
        sources = [np.asarray(pos, dtype=float) for pos in ((3.0, -7.5), *positions)]
        assert geom.dist_direct == tuple(float(np.linalg.norm(pos - np.asarray(su)))
                                         for pos in sources)
        assert geom.dist_to_ris == tuple(float(np.linalg.norm(pos - np.asarray(ris)))
                                         for pos in sources)
        assert geom.dist_ris_su == float(np.linalg.norm(np.asarray(su) - np.asarray(ris)))
        moved = dataclasses.replace(geom, interferer_pos=positions[:2])
        assert moved.dist_direct == geom.dist_direct[:3] and moved == chan.Geometry(
            pu_pos=(3.0, -7.5), ris_pos=ris, su_pos=su, interferer_pos=positions[:2])

    def test_the_scenario_constants_are_read_only(self):
        sc = los_scenario(k=2)
        for array in (sc.gains.beta_d, sc.gains.beta_f, sc.geometry.steps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ConfigError):
            chan.Geometry(pu_pos=(0, 0), ris_pos=(0, 0), su_pos=(10, 0))

    def test_angles_derived_from_positions(self):
        geom = chan.Geometry(pu_pos=(0.0, 50.0), ris_pos=(100.0, 50.0), su_pos=(200.0, 50.0))
        sc = ScenarioConfig(n_antennas=4, geometry=geom, t_samples=400)
        los = chan.steering_factors(sc, 3, 2)
        # PU due west of the surface, receiver due east; every elevation zero
        np.testing.assert_allclose(los.a_f[0], chan.steering_vector_upa(3, 2, np.pi, 0.0),
                                   atol=1e-12)
        np.testing.assert_allclose(los.b_ris, chan.steering_vector_upa(3, 2, 0.0, 0.0))
        # the surface lies on the receiver's axis (AOA pi): no phase progression
        np.testing.assert_allclose(los.a_su, np.ones(4), atol=1e-12)
