"""Riemann-Hilbert quantities: delta, F, d(A), and the profile evaluators."""

import cmath
import dataclasses
import gc
import inspect
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nnlstep import (
    CutSide,
    F_at,
    F_infinity,
    F_plus_at_zero,
    InitialData,
    MissingNormingConstant,
    RegionMismatch,
    SingularStation,
    SolitonPole,
    Source,
    SpectralData,
    StepProfile,
    ToleranceNotMet,
    WindingOutOfRange,
    central_params,
    check_assumptions,
    delta_data,
    jost_spectral,
    modulated_params,
    q_central,
    q_modulated,
    q_soliton,
    q_transition,
    soliton_spectral,
    step_spectral,
    transition_continuous_at_zero,
    transition_dA,
    transition_params,
)
import nnlstep.rh_asymptotics as rh
import nnlstep.spectral as spectral
from nnlstep.quadrature import (
    IntegrandSpec,
    cauchy_semiinfinite,
    running_winding,
    semiinfinite_integral,
    tanh_sinh,
)
from nnlstep.spectral import endpoint_zero, ray_decay


def _g_centered_step(s):
    # 1 + r1 r2 = f^2/k^2 = 1 - 1/s^2 for the centered unit step.
    s = np.asarray(s, dtype=float)
    return (1.0 - 1.0 / s**2).astype(complex)


class TestDelta:
    def test_endpoint_zero_detected(self, step_sd):
        dd = delta_data(step_sd, -1.0)
        assert dd.zero_at_minus_A
        assert math.isnan(dd.nu.real)

    def test_modulated_ray_never_samples_near_minus_A(self, step_sd):
        # The endpoint-zero probe belongs to k1 = -A alone; a modulated ray
        # has no use for samples next to -A.
        seen = []
        g = step_sd.one_plus_r1r2_ray

        def sampled(s):
            seen.append(np.atleast_1d(np.asarray(s, dtype=float)).copy())
            return g(s)

        # The one field that delta_data and endpoint_zero both read.
        sd = dataclasses.replace(step_sd, one_plus_r1r2_ray=sampled)
        k1 = -0.5 * (2.0 + math.sqrt(6.0))  # the ray xi = 2, A = 1
        delta_data(sd, k1)
        points = np.concatenate(seen)
        assert points.size > 0
        assert np.min(np.abs(points + 1.0)) > 1e-6

    def test_delta_at_origin_golden(self, step_sd):
        # Analytic dilogarithm evaluation of the exponent integral gives
        # delta(0, -A) = exp(-i pi / 24) for the centered step.
        dd = delta_data(step_sd, -1.0)
        assert abs(dd.delta_at(0.0) - cmath.exp(-1j * math.pi / 24)) < 1e-6

    def test_modulated_nu_real_for_centered_step(self, step_sd):
        k1 = -1.2
        dd = delta_data(step_sd, k1)
        want = math.log(1.44 / 0.44) / (2 * math.pi)
        assert dd.nu == pytest.approx(want, abs=1e-9)
        assert abs(dd.Delta_k1) < 1e-9

    def test_boundary_jump_relation(self, step_sd):
        # delta_+ = delta_- (1 + r1 r2) on the ray.
        dd = delta_data(step_sd, -1.0)
        x0 = -2.0
        above = dd.delta_boundary(x0, CutSide.ABOVE)
        below = dd.delta_boundary(x0, CutSide.BELOW)
        g = complex(_g_centered_step(np.array([x0]))[0])
        assert abs(above - below * g) < 1e-6

    def test_endpoint_exponent_split_identity(self, step_sd):
        # Splitting off the constant ln g(k1) over the last unit cell turns
        # ln delta into i nu ln(k1 - k) plus regular integrals; the residual
        # certifies the (k - k1)^{i nu} local behavior.
        k1 = -1.2
        k = -1.0 + 0.5j
        dd = delta_data(step_sd, k1)
        lng_k1 = complex(np.log(_g_centered_step(np.array([k1]))[0]))

        def lng(s):
            return np.log(_g_centered_step(s))

        tail = cauchy_semiinfinite(
            IntegrandSpec(lng, decay_estimate=2.0), k1 - 1.0, k, tol=1e-10
        )
        middle, _ = tanh_sinh(
            lambda s: (lng(s) - lng_k1) / (s - k), k1 - 1.0, k1, tol=1e-10
        )
        local = lng_k1 * (np.log(k1 - k) - np.log(k1 - 1.0 - k))
        split = (tail + middle + local) / (2j * np.pi)
        assert abs(split - dd.log_delta_at(k)) < 1e-6
        # The ln(k1 - k) coefficient is exactly i nu.
        assert abs(lng_k1 / (2j * np.pi) - 1j * dd.nu) < 1e-9

    def test_no_endpoint_zero_on_sampled_data(self):
        # A sampled soliton: 1 + r1 r2 does not vanish at -A, a branch point
        # where the Jost route cannot evaluate it; g(-A) is the endpoint
        # probe's, and delta = 1 as 1 + r1 r2 = 1 to rounding.
        sd = jost_spectral(InitialData(lambda x: q_soliton(1.0, 0.4, x, 0.0), 12.0), 1.0, [])
        zero, probe = endpoint_zero(sd)
        assert not zero and abs(probe - 1.0) < 1e-11
        dd = delta_data(sd, -1.0)
        assert not dd.zero_at_minus_A and abs(dd.nu) < 1e-10
        assert dd.nu == -math.log(abs(probe)) / (2 * math.pi) - 1j * dd.Delta_k1 / (2 * math.pi)
        assert abs(dd.delta_at(0.0) - 1.0) < 1e-12

    def test_k1_above_minus_A_rejected(self, step_sd):
        with pytest.raises(ValueError):
            delta_data(step_sd, -0.5)

    def test_boundary_value_needs_a_side(self, step_sd):
        with pytest.raises(ValueError, match="side ABOVE or BELOW"):
            delta_data(step_sd, -1.5).delta_boundary(-2.0, CutSide.OFF)

    def test_winding_out_of_range(self):
        # Fabricated unimodular data whose argument winds past pi.
        def abc(k, side=CutSide.OFF):
            a1 = np.exp(-4j * np.exp(-((k.real + 1.5) ** 2)))
            return a1, np.ones_like(a1), np.zeros_like(a1)

        sd = SpectralData(
            A=1.0, abc=abc, a10=-1j,
            gamma_plus=lambda: -1.0, source=Source.NUMERIC_JOST,
            one_plus_r1r2_ray=lambda s, sp=None: 1.0 / abc(np.asarray(s, dtype=complex))[0],
        )
        with pytest.raises(WindingOutOfRange):
            delta_data(sd, -1.5)


class TestF:
    def test_F_infinity_at_minus_A_golden(self, step_sd):
        val = F_infinity(step_sd, -1.0)
        assert abs(val - (-math.pi / 8)) < 1e-6

    def test_F_infinity_scale_invariance(self):
        for A in (0.5, 2.0):
            sd = step_spectral(StepProfile(A=A, R=0.0))
            assert abs(F_infinity(sd, -A) - (-math.pi / 8)) < 1e-6

    def test_F_infinity_modulated_golden(self, step_sd):
        # Frozen value cross-checked against nested double quadrature.
        assert abs(F_infinity(step_sd, -1.2) - (-0.09255104408553899)) < 1e-6

    def test_F_plus_at_zero_golden(self, step_sd):
        dd = delta_data(step_sd, -1.0)
        want = math.sqrt(2.0) * cmath.exp(-1j * math.pi / 24)
        assert abs(F_plus_at_zero(step_sd, dd) - want) < 1e-6

    def test_product_identity_on_cut(self, step_sd):
        # F_+ F_- = delta^2 on (-A, A).
        dd = delta_data(step_sd, -1.0)
        x0 = -0.3
        prod = F_at(step_sd, dd, x0, CutSide.ABOVE) * F_at(step_sd, dd, x0, CutSide.BELOW)
        assert abs(prod - dd.delta_at(x0) ** 2) < 1e-6

    def test_large_k_limit(self, step_sd):
        dd = delta_data(step_sd, -1.0)
        val = F_at(step_sd, dd, 400.0 + 400.0j)
        assert abs(val - cmath.exp(-1j * math.pi / 8)) < 5e-3

    def test_transition_dA_golden(self, step_sd):
        dA = transition_dA(step_sd)
        assert abs(dA - (-2j)) < 1e-6

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="d(A)'s one Cauchy walk, of F_+(0)/delta(0), starts with a tanh-sinh cell "
        "ending at k1 = -A in s, which loses the endpoint mass (d(A) = -1.99999963i, "
        "3.7e-7 off); ROADMAP item 1(b) walks it in t = s + A, which moves the R = -1 "
        "d(A) by 2.2e-6 and so needs the benchmark anchors re-recorded",
    )
    def test_transition_dA_is_exact_for_centred_step(self, step_sd):
        assert abs(transition_dA(step_sd) - (-2j)) < 1e-12

    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("R", [-1.5, -1.0, -0.5, 0.0, 0.33, 0.7, 1.5])
    def test_transition_dA_is_one_walk_of_the_ratio(self, A, R, monkeypatch):
        # d(A) walks F_+(0)/delta(0) as one integral; it agrees with the
        # ratio of the two walks F_plus_at_zero and delta_at(0).
        sd = step_spectral(StepProfile(A=A, R=R))
        dd = delta_data(sd, -A)
        want = sd.gamma_plus() * F_plus_at_zero(sd, dd) ** 2 / (sd.a10 * dd.delta_at(0.0) ** 2)
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        for name in ("semiinfinite_integral", "running_winding"):
            monkeypatch.setattr(rh, name, counting(getattr(rh, name)))
        got = transition_dA(step_spectral(StepProfile(A=A, R=R)))
        assert abs(got - want) <= 1e-9 * abs(want)
        assert sorted(calls) == ["running_winding", "semiinfinite_integral"]

    @pytest.mark.parametrize("R", [0.0, 0.7])
    def test_sampled_step_reaches_ray_layer(self, R):
        # Jost data take the same ray path as the closed form, down to the
        # endpoint probe at -A(1 + 1e-8) and the nodes next to k1 = -A.
        prof = StepProfile(A=1.0, R=R)
        sd = step_spectral(prof)
        nd = jost_spectral(InitialData(prof.sample, decay_width=1.5), 1.0, [])
        for xi in (0.75, 2.0):
            assert abs(modulated_params(nd, xi).F_inf - modulated_params(sd, xi).F_inf) < 1e-12
        assert abs(central_params(nd, 0.2).F_inf - central_params(sd, 0.2).F_inf) < 1e-12

    def test_transition_dA_soliton(self):
        sd = soliton_spectral(1.5, 0.4)
        assert transition_dA(sd) == pytest.approx(3.0 * cmath.exp(0.4j))

    def test_soliton_takes_the_general_path_exactly(self):
        # 1 + r1 r2 = 1 on the ray, so every ray integral vanishes exactly.
        sd = soliton_spectral(1.0, 0.8)
        assert F_infinity(sd, -1.0) == 0j and F_infinity(sd, -1.7) == 0j
        dd = delta_data(sd, -1.0)
        assert F_at(sd, dd, 0.5 + 0.3j) == 1.0 and F_at(sd, dd, 0.2, CutSide.ABOVE) == 1.0
        assert transition_dA(sd) == sd.gamma_plus() / sd.a10


class TestSolitonReduction:
    """Reflectionless data through every evaluator: 1 + r1 r2 = 1 on the
    ray, so each ray integral vanishes exactly and the profiles are the
    one-soliton's."""

    @settings(max_examples=25)
    @given(
        A=st.floats(0.3, 3.0),
        phi0=st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
    )
    def test_every_evaluator_reduces_to_the_soliton(self, A, phi0):
        sd = soliton_spectral(A, phi0)
        k1 = _k1(0.75 * A, A)
        assert F_infinity(sd, -A) == 0j and F_infinity(sd, k1) == 0j
        for dd in (delta_data(sd, -A), delta_data(sd, k1)):
            assert dd.delta_at(0.0) == 1.0 and dd.delta_at(A * (0.5 + 0.3j)) == 1.0
            assert F_at(sd, dd, A * (0.5 + 0.3j)) == 1.0
            assert F_at(sd, dd, 0.2 * A, CutSide.ABOVE) == 1.0
            assert F_plus_at_zero(sd, dd) == 1.0
        assert transition_dA(sd) == sd.gamma_plus() / sd.a10
        # On the rays x = 4 xi t the plane waves differ from the soliton by
        # about 2A e^{-2A|x|}; t puts 2A|x| at 40, far below the bounds.
        for xi in (0.75 * A, -0.75 * A):
            t = 5.0 / (A * abs(xi))
            assert abs(q_modulated(sd, xi, t) - q_soliton(A, phi0, 4 * xi * t, t)) < 1e-10
        for xi in (0.25 * A, -0.25 * A):
            t = 5.0 / (A * abs(xi))
            assert abs(q_central(sd, xi, t) - q_soliton(A, phi0, 4 * xi * t, t)) < 1e-10
        for x in (0.5 / A, -0.5 / A, 2.0 / A, -2.0 / A):
            assert abs(q_transition(sd, x, 7.0) - q_soliton(A, phi0, x, 7.0)) < 1e-12


class TestProfiles:
    def test_reflectionless_reduction_exact(self):
        for phi0 in (0.0, 0.8):
            sd = soliton_spectral(1.0, phi0)
            t = 7.0
            # Modulated and central plane waves match the soliton's far field.
            qm = q_modulated(sd, 0.75, t)
            assert abs(qm - q_soliton(1.0, phi0, 4 * 0.75 * t, t)) < 1e-10
            qc = q_central(sd, 0.2, 40.0)
            assert abs(qc - q_soliton(1.0, phi0, 4 * 0.2 * 40.0, 40.0)) < 1e-10
            for x in (0.5, -0.9, 2.0):
                qt = q_transition(sd, x, t)
                assert abs(qt - q_soliton(1.0, phi0, x, t)) < 1e-12

    def test_modulated_amplitude_and_phase(self, step_sd):
        p = modulated_params(step_sd, 0.75)
        t = 12.0
        q = q_modulated(step_sd, 0.75, t, params=p)
        assert abs(q) == pytest.approx(math.exp(-2 * p.F_inf.imag), abs=1e-12)
        want_phase = -2 * t + 2 * p.F_inf.real
        assert cmath.phase(q * cmath.exp(-1j * want_phase)) == pytest.approx(0.0, abs=1e-12)
        assert p.error_exponent == pytest.approx(0.5, abs=1e-6)  # nu real here

    def test_central_is_xi_independent(self, step_sd):
        t = 9.0
        q_a = q_central(step_sd, 0.1, t)
        q_b = q_central(step_sd, 0.4, t)
        assert abs(q_a - q_b) < 1e-12

    def test_central_sides_differ_by_sign_for_real_F(self, step_sd):
        t = 3.0
        assert abs(q_central(step_sd, 0.2, t) + q_central(step_sd, -0.2, t)) < 1e-9

    def test_transition_interpolates_tanh_for_centered_step(self, step_sd):
        # d(A) = -2iA collapses both branches to A tanh(Ax) times the
        # central plane wave.
        tp = transition_params(step_sd)
        t = 5.0
        plane = q_central(step_sd, 0.2, t)
        for x in (0.5, 1.0, -0.5, -2.0):
            q = q_transition(step_sd, x, t, params=tp)
            assert abs(q - plane * math.tanh(x)) < 1e-6

    def test_transition_refuses_missing_gamma_before_F_inf(self, step_sd, monkeypatch):
        # d(A) comes first, so data without gamma_+ never start the F_inf walk.
        def no_F_inf(*args):
            raise AssertionError("F_infinity ran before gamma_+ was checked")

        monkeypatch.setattr(rh, "F_infinity", no_F_inf)
        sd = dataclasses.replace(step_sd, gamma_plus=lambda: complex("nan"))
        with pytest.raises(MissingNormingConstant):
            transition_params(sd)

    @pytest.mark.parametrize("xi", [0.0, 0.5, -0.5], ids=["axis", "edge", "minus_edge"])
    def test_boundary_ray_mismatch_names_the_region(self, step_sd, xi):
        for params in (modulated_params, central_params):
            with pytest.raises(RegionMismatch, match="Boundary"):
                params(step_sd, xi)

    def test_transition_limits_match_central_constants(self, step_sd):
        tp = transition_params(step_sd)
        t = 4.0
        assert abs(q_transition(step_sd, 25.0, t, params=tp) - q_central(step_sd, 0.2, t)) < 1e-6
        assert abs(q_transition(step_sd, -25.0, t, params=tp) - q_central(step_sd, -0.2, t)) < 1e-6

    def test_continuity_predicate(self, step_sd):
        assert transition_continuous_at_zero(step_sd)
        assert transition_continuous_at_zero(soliton_spectral(1.0, 0.0))
        # d = 2iA is the excluded pole configuration.
        assert not transition_continuous_at_zero(soliton_spectral(1.0, math.pi / 2))

    def test_region_mismatch_errors(self, step_sd):
        with pytest.raises(RegionMismatch):
            q_modulated(step_sd, 0.2, 5.0)
        with pytest.raises(RegionMismatch):
            q_central(step_sd, 0.75, 5.0)
        with pytest.raises(RegionMismatch):
            modulated_params(step_sd, 0.5)
        with pytest.raises(RegionMismatch):
            q_transition(step_sd, 0.0, 5.0)

    def test_profile_refuses_params_of_the_other_family(self, step_sd):
        with pytest.raises(RegionMismatch, match="is not modulated"):
            q_modulated(step_sd, 0.2, 5.0, params=central_params(step_sd, 0.2))
        with pytest.raises(RegionMismatch, match="is not central"):
            q_central(step_sd, 0.75, 5.0, params=modulated_params(step_sd, 0.75))

    def test_modulated_profile_refuses_params_of_the_other_side(self, step_sd):
        # The side comes from the ray: the params of xi = 0.75 would give
        # the plus-side wave on the ray -0.75.
        with pytest.raises(RegionMismatch, match="ModulatedMinus.*is not modulated"):
            q_modulated(step_sd, -0.75, 10.0, params=modulated_params(step_sd, 0.75))
        own = modulated_params(step_sd, -0.75)
        assert q_modulated(step_sd, -0.75, 10.0, params=own) == q_modulated(step_sd, -0.75, 10.0)

    def test_central_profile_refuses_a_modulated_ray(self, step_sd):
        with pytest.raises(RegionMismatch, match="ModulatedPlus.*is not central"):
            q_central(step_sd, 0.9, 10.0, params=central_params(step_sd, 0.2))

    def test_zero_a10_is_missing_norming_data(self, step_sd):
        with pytest.raises(MissingNormingConstant, match="a10"):
            transition_dA(dataclasses.replace(step_sd, a10=0))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "profile",
        [
            lambda sd, t: q_modulated(sd, 0.75, t),
            lambda sd, t: q_central(sd, 0.2, t),
            lambda sd, t: q_transition(sd, 0.5, t),
        ],
        ids=["modulated", "central", "transition"],
    )
    def test_non_finite_time_rejected(self, step_sd, profile, t):
        with pytest.raises(ValueError, match="time must be finite"):
            profile(step_sd, t)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_station_rejected(self, step_sd, x):
        with pytest.raises(ValueError, match="station must be finite"):
            q_transition(step_sd, x, 5.0)

    @pytest.mark.parametrize("x0", [0.5, -0.5])
    def test_singular_station_guard(self, x0):
        # d(A) = 2i e^(2A|x0|) zeroes 2A + i D e^(-2A|x0|) on either side:
        # D = d(A) for x0 > 0 and -conj d(A) = d(A) for x0 < 0.  A profile
        # takes only params of its own data, so the crafted d(A) goes into
        # the table of fresh data.
        sd = step_spectral(StepProfile(A=1.0, R=0.0))
        rh._table(sd).dA = 2j * math.exp(2.0 * abs(x0))
        with pytest.raises(SingularStation):
            q_transition(sd, x0, 5.0)

    def test_profiles_refuse_params_of_other_data(self, step_sd):
        # step_sd's params on other data gave |q| = 1.0, 1.0, 1.0 and 0.462
        # without an error, where the data's own params give the last column.
        offset = step_spectral(StepProfile(A=1.0, R=0.7))
        wide = step_spectral(StepProfile(A=2.0, R=0.0))
        cases = [
            (q_central, 0.2, central_params(step_sd, 0.2), offset, 1.5529),
            (q_modulated, 1.5, modulated_params(step_sd, 1.5), offset, 0.9928),
            (q_modulated, 1.5, modulated_params(step_sd, 1.5), wide, 2.0),
            (q_transition, 0.5, transition_params(step_sd), wide, 1.5232),
        ]
        for profile, where, borrowed, sd, own in cases:
            with pytest.raises(RegionMismatch, match="not made from these spectral data"):
                profile(sd, where, 10.0, params=borrowed)
            assert abs(profile(sd, where, 10.0)) == pytest.approx(own, abs=1e-4)

    @pytest.mark.parametrize("R", [0.0, 0.7])
    def test_own_params_are_the_profile_without_params(self, R):
        sd = step_spectral(StepProfile(A=1.0, R=R))
        for xi in (0.75, -1.5):
            p = modulated_params(sd, xi)
            assert q_modulated(sd, xi, 9.0, params=p) == q_modulated(sd, xi, 9.0)
        for xi in (0.2, -0.3):
            p = central_params(sd, xi)
            assert q_central(sd, xi, 9.0, params=p) == q_central(sd, xi, 9.0)
        p = transition_params(sd)
        for x in (0.5, -2.0):
            assert q_transition(sd, x, 9.0, params=p) == q_transition(sd, x, 9.0)

    def test_far_station_is_the_central_wave(self, step_sd):
        # e^(-2A|x|) underflows to 0 at |x| = 400, leaving the central plane
        # wave of x's side.
        for t in (10.0, 40.0):
            assert abs(q_transition(step_sd, -400.0, t) - q_central(step_sd, -0.2, t)) < 1e-12
            assert abs(q_transition(step_sd, 400.0, t) - q_central(step_sd, 0.2, t)) < 1e-12

    def test_modulated_params_refused(self, step_sd):
        with pytest.raises(RegionMismatch):
            q_transition(step_sd, 0.5, 5.0, params=modulated_params(step_sd, 0.75))

    def test_soliton_pole(self):
        with pytest.raises(SolitonPole):
            q_soliton(1.0, math.pi / 2, 0.0, 1.0)
        # Away from the pole configuration the profile is regular.
        assert abs(q_soliton(1.0, 0.0, 0.0, 0.0) - cmath.tanh(-0.25j * math.pi)) < 1e-12


def _k1(xi, A):
    """Stationary point k1 <= -A of the ray |xi|."""
    return -0.5 * (abs(xi) + math.sqrt(xi * xi + 2.0 * A * A))


def _walker_F_inf(sd, k1, tol=1e-8):
    """F_inf as two semi-infinite walker calls: ln|1 + r1 r2| and the
    np.interp winding interpolant, each over sqrt(s^2 - A^2).  The first
    runs in t = s + A, so that at k1 = -A the walker's nodes keep their
    distance t to the log singularity instead of rounding onto it."""
    A = sd.A
    g = sd.one_plus_r1r2_ray
    decay = max(1.0, 2.0 * A)
    k_end = k1 - 1e-9 * max(1.0, abs(k1))
    grid, cum = running_winding(IntegrandSpec(g, decay), k_end)

    def re(t):
        s = t - A
        return np.log(np.abs(g(s, t))) / (np.sqrt(A - s) * np.sqrt(-t))

    def im(s):
        return np.interp(s, grid, cum, left=0.0, right=cum[-1]) / np.sqrt(s * s - A * A)

    re_val = semiinfinite_integral(IntegrandSpec(re, decay), k1 + A, tol=tol).real
    im_val = semiinfinite_integral(IntegrandSpec(im, decay), k1, tol=tol).real
    return complex(re_val, im_val) / (2 * np.pi)


class TestRayTable:
    """F_inf through the per-data table: shared Re tails, closed-form Im."""

    # Hypothesis seeds derandomized draws from the test's source, decorators
    # included, so this test keeps its full settings and with them its draws:
    # other draws meet rays where the walker oracle itself is up to 2e-7 off
    # (test_wide_oscillating_cell in test_quadrature.py).
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        u=st.floats(0.5, 5.0, exclude_min=True, exclude_max=True),
        R=st.floats(-1.5, 1.5),
        A=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_walker_formula(self, u, R, A):
        sd = step_spectral(StepProfile(A=A, R=R))
        k1 = _k1(u * A, A)
        assert abs(F_infinity(sd, k1) - _walker_F_inf(sd, k1)) <= 3e-8

    def test_call_order_does_not_change_results(self):
        rays = (0.6, -0.6, 0.9, 1.7, 2.2, 4.8, 1.1)

        def run(order):
            sd = step_spectral(StepProfile(A=1.0, R=0.7))
            out = {}
            for item in order:
                if item == "transition":
                    p = transition_params(sd)
                    out[item] = (p.F_inf, p.dA)
                elif item == "central":
                    out[item] = central_params(sd, 0.2).F_inf
                else:
                    p = modulated_params(sd, item)
                    out[item] = (p.F_inf, p.error_exponent)
            return out

        forward = run(rays + ("central", "transition"))
        for order in (
            ("transition", "central") + rays[::-1],
            (rays[3], "central", rays[0], "transition") + rays[4:] + rays[1:3],
        ):
            assert run(order) == forward

    def test_closed_form_matches_quad(self):
        A = 1.0
        sd = step_spectral(StepProfile(A=A, R=-1.0))
        k1 = _k1(0.6, A)
        k_end = k1 - 1e-9 * max(1.0, abs(k1))
        grid, cum = running_winding(IntegrandSpec(sd.one_plus_r1r2_ray, ray_decay(A)), k_end)

        def im(s):
            return np.interp(s, grid, cum, left=0.0, right=cum[-1]) / math.sqrt(s * s - A * A)

        val, _ = quad(im, grid[0], k1, points=grid[1:], limit=2 * grid.size,
                      epsabs=1e-14, epsrel=1e-13)
        assert abs(F_infinity(sd, k1).imag - val / (2 * np.pi)) < 1e-11

    @pytest.fixture
    def winding_ends(self, monkeypatch):
        """End points of the running_winding passes of rh_asymptotics."""
        ends = []

        def counting(*args, **kwargs):
            ends.append(args[1])
            return running_winding(*args, **kwargs)

        monkeypatch.setattr(rh, "running_winding", counting)
        return ends

    def test_one_winding_pass_per_modulated_ray(self, winding_ends):
        sd = step_spectral(StepProfile(A=1.0, R=-1.0))
        for n, xi in enumerate((0.9, 1.7, -3.0), start=1):
            modulated_params(sd, xi)
            assert len(winding_ends) == n

    def test_one_winding_pass_for_transition_and_central(self, winding_ends):
        # d(A)'s delta_data(-A) pass also gives F_inf(-A) its imaginary part.
        A = 1.0
        sd = step_spectral(StepProfile(A=A, R=0.7))
        transition_params(sd)
        central_params(sd, 0.2)
        central_params(sd, -0.2)
        assert winding_ends == [-A - 1e-9 * max(1.0, A)]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: step_spectral(StepProfile(A=1.0, R=-1.0)),
            lambda: step_spectral(StepProfile(A=1.0, R=0.0)),
            lambda: step_spectral(StepProfile(A=1.0, R=0.7)),
            lambda: soliton_spectral(1.0, 0.8),
            lambda: jost_spectral(
                InitialData(StepProfile(A=1.0, R=0.7).sample, decay_width=1.5), 1.0, []
            ),
        ],
        ids=["step-1", "step0", "step0.7", "soliton", "jost"],
    )
    def test_warm_ray_makes_three_path_calls(self, make):
        # Once xi = 2 has built the Re panels that xi = 2.1 needs, a ray
        # calls 1 + r1 r2 for the tail probe, the winding grid with k1
        # appended (nu's g(k1)) and its Re panel.
        sd = make()
        g, sizes = sd.one_plus_r1r2_ray, []

        def counting(s, *args):
            sizes.append(np.size(s))
            return g(s, *args)

        sd = dataclasses.replace(sd, one_plus_r1r2_ray=counting)
        modulated_params(sd, 2.0)
        sizes.clear()
        modulated_params(sd, 2.1)
        assert sizes == [9, 601, 12]

    def test_one_table_per_data_set(self, monkeypatch):
        built = []

        class Counting(rh._RayTable):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(rh, "_RayTable", Counting)
        sd = step_spectral(StepProfile(A=1.0, R=0.7))
        for xi in (0.9, 1.7, -3.0, 2.0):
            modulated_params(sd, xi)
        transition_params(sd)
        central_params(sd, 0.2)
        assert len(built) == 1 and rh._table(sd) is built[0]

    def test_replaced_data_get_a_table_of_their_own(self):
        # dataclasses.replace builds new data, and with them a memo of their
        # own: the copy shares no F_inf, Im F_inf or panels with the
        # original, so a changed 1 + r1 r2 is integrated afresh.
        sd = step_spectral(StepProfile(A=1.0, R=0.7))
        k1 = modulated_params(sd, 0.9).k1
        F = F_infinity(sd, k1)
        table = rh._table(sd)
        before = (dict(table.F_inf), dict(table.im_F_inf), table.tail,
                  {side: list(e) for side, e in table.edges.items()})
        g = sd.one_plus_r1r2_ray
        squared = dataclasses.replace(sd, one_plus_r1r2_ray=lambda s, sp=None: g(s, sp) ** 2)
        fresh = rh._table(squared)
        assert fresh is not table and rh._table(dataclasses.replace(sd)) is not table
        assert not fresh.F_inf and not fresh.im_F_inf and fresh.tail is None
        assert not any(fresh.edges.values()) and not any(fresh.sums.values())
        # ln of g^2 is twice ln g, so F_inf doubles.
        assert abs(F_infinity(squared, k1) - 2.0 * F) < 1e-9
        assert before == (table.F_inf, table.im_F_inf, table.tail, table.edges)

    @pytest.mark.parametrize("R", [-1.0, 0.7])
    def test_F_infinity_first_equals_modulated(self, R):
        # F_infinity's own pass and modulated_params' delta_data pass fill
        # the table with the same Im F_inf.
        p = modulated_params(step_spectral(StepProfile(A=1.0, R=R)), 0.9)
        assert F_infinity(step_spectral(StepProfile(A=1.0, R=R)), p.k1) == p.F_inf

    def test_table_does_not_keep_data_alive(self):
        sd = step_spectral(StepProfile(A=1.0, R=0.7))
        modulated_params(sd, 0.9)
        modulated_params(sd, -3.0)
        transition_params(sd)
        table = rh._table(sd)
        assert isinstance(table, rh._RayTable)
        assert table.dA == transition_dA(sd)
        # The Re F_inf panels of both sides are plain floats.
        sides = [*table.edges.values(), *table.sums.values()]
        assert len(sides) == 4 and all(sides)
        assert all(type(x) is float for side in sides for x in side)
        ref = weakref.ref(sd)
        del sd
        gc.collect()
        assert ref() is None

    @pytest.fixture(scope="class")
    def unwrapped_im_F_inf(self):
        """Im F_inf for A = 1, R = -1, xi = 0.6 from an independent unwrap."""
        A, R = 1.0, -1.0
        sd = step_spectral(StepProfile(A=A, R=R))
        k1 = _k1(0.6, A)
        # 2M samples on [k1 - 40, k1], dense toward k1; the argument of
        # 1 + r1 r2 = 1/(a1 a2), a1 a2 from the complex closed form of abc
        # rather than the ray kernel, is unwrapped from its normalized end.
        s = k1 - 40.0 * np.linspace(1.0, 0.0, 2_000_000) ** 2
        a1a2 = np.concatenate([
            np.prod(sd.abc(chunk.astype(complex), CutSide.OFF)[:2], axis=0)
            for chunk in np.array_split(s, 20)
        ])
        arg = np.unwrap(-np.angle(a1a2))
        arg -= 2 * np.pi * np.round(arg[0] / (2 * np.pi))
        fs = arg / np.sqrt(s * s - A * A)
        ref = np.sum(0.5 * (fs[1:] + fs[:-1]) * np.diff(s)) / (2 * np.pi)
        assert ref == pytest.approx(-0.018856, abs=2e-6)
        return ref

    @pytest.mark.xfail(
        strict=True,
        reason="Im F_inf integrates the linear interpolant of the running_winding "
        "samples, which misses the refined argument near zeros of 1 + r1 r2 by up "
        "to 0.3 rad (3.4e-3 in Im F_inf here); the fix, imag(log_g_at), needs the "
        "R = -1 and R = 0.7 benchmark anchors re-recorded",
    )
    def test_im_F_inf_matches_independent_unwrap(self, unwrapped_im_F_inf):
        sd = step_spectral(StepProfile(A=1.0, R=-1.0))
        assert abs(F_infinity(sd, _k1(0.6, 1.0)).imag - unwrapped_im_F_inf) < 1e-4


def _mp_log_one_plus_r1r2(mp, u, A, R):
    """ln|1 + r1 r2| of the pure step at s = -A cosh u, in mpmath.

    1 + r1 r2 = 1/(a1 a2) = (2 f h)^2 / (p m) with f = -A sinh u (exact at
    the endpoint u = 0), h = -sqrt(s^2 + A^2), l1,2 = i(f +- h) and
    p = e^{2 l1 R}(A^2 + i s l2) - e^{2 l2 R}(A^2 + i s l1),
    m = e^{-2 l2 R}(A^2 - i s l1) - e^{-2 l1 R}(A^2 - i s l2).
    """
    s = -A * mp.cosh(u)
    fs = -A * mp.sinh(u)
    hs = -mp.sqrt(s * s + A * A)
    l1, l2 = mp.j * (fs + hs), mp.j * (fs - hs)
    p = mp.exp(2 * l1 * R) * (A * A + mp.j * s * l2) - mp.exp(2 * l2 * R) * (A * A + mp.j * s * l1)
    m = mp.exp(-2 * l2 * R) * (A * A - mp.j * s * l1) - mp.exp(-2 * l1 * R) * (A * A - mp.j * s * l2)
    return mp.log(abs((2 * fs * hs) ** 2 / (p * m)))


class TestWalkerBlocks:
    """The ray walker hands levels longer than quadrature._WALK_BLOCK to
    the integrand in blocks; every integrand is elementwise, so blocks
    change no bit and no point count."""

    @staticmethod
    def _run(R, sizes):
        sd = step_spectral(StepProfile(A=1.0, R=R))
        dd = delta_data(sd, -1.0)
        values = (
            F_plus_at_zero(sd, dd), dd.delta_at(0.0), F_infinity(sd, -1.0),
            rh._table(sd).tail, transition_dA(sd),
        )
        return [repr(v) for v in values], sum(sizes), max(sizes)

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7])
    def test_blocks_are_bit_identical(self, R, monkeypatch):
        import nnlstep.quadrature as quadrature

        sizes = []
        spec = rh.IntegrandSpec

        def counting(eval, *args, **kwargs):
            def counted(x):
                sizes.append(np.size(x))
                return eval(x)

            return spec(counted, *args, **kwargs)

        monkeypatch.setattr(rh, "IntegrandSpec", counting)
        block = quadrature._WALK_BLOCK
        blocked, blocked_points, blocked_max = self._run(R, sizes)
        sizes.clear()
        monkeypatch.setattr(quadrature, "_WALK_BLOCK", 1 << 30)
        whole, whole_points, whole_max = self._run(R, sizes)
        assert blocked == whole
        assert blocked_points == whole_points
        # F_+(0)'s endpoint cell has levels of tens of thousands of nodes.
        assert blocked_max <= block < whole_max


class TestExactEndpoint:
    """Re F_inf in t = s + A: the endpoint k1 = -A keeps its mass, and one
    tail at -2A serves every ray."""

    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    def test_centered_step_is_minus_pi_over_8(self, A):
        # The endpoint cell is exact to 1e-14 here; what is left, 4.6e-12,
        # is the tail walker stopping at a cell below 1e-10.
        sd = step_spectral(StepProfile(A=A, R=0.0))
        assert abs(F_infinity(sd, -A).real + math.pi / 8) < 1e-11

    def test_sampled_centered_step_is_minus_pi_over_8(self):
        prof = StepProfile(A=1.0, R=0.0)
        nd = jost_spectral(InitialData(prof.sample, decay_width=1.5), 1.0, [])
        assert abs(F_infinity(nd, -1.0).real + math.pi / 8) < 1e-10

    @pytest.mark.parametrize("R", [-1.0, 0.7])
    def test_endpoint_cell_matches_mpmath(self, R):
        mpmath = pytest.importorskip("mpmath")
        A = 1.0
        with mpmath.workdps(30):
            # s = -A cosh u maps [-2A, -A] onto [0, arccosh 2] with
            # ds / sqrt(s^2 - A^2) = -du.
            cell = mpmath.quad(
                lambda u: _mp_log_one_plus_r1r2(mpmath.mp, u, A, R), [0, mpmath.acosh(2)]
            )
            want = float(cell / (2 * mpmath.pi))
        sd = step_spectral(StepProfile(A=A, R=R))
        got = F_infinity(sd, -A).real - F_infinity(sd, -2.0 * A).real
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("ka, kb", [(-2.5, -1.5), (-5.0, -2.5)])
    def test_rays_share_one_tail(self, ka, kb):
        # Rays on either side of -2A differ by a finite integral alone.
        A = 1.0
        sd = step_spectral(StepProfile(A=A, R=0.33))
        g = sd.one_plus_r1r2_ray

        def integrand(s):
            return math.log(abs(complex(g(np.array([s]))[0]))) / math.sqrt(s * s - A * A)

        val, _ = quad(integrand, ka, kb, epsabs=1e-14, epsrel=1e-13, limit=200)
        got = F_infinity(sd, kb).real - F_infinity(sd, ka).real
        assert abs(got - val / (2 * np.pi)) < 1e-11

    def test_central_F_inf_is_cheap(self):
        points = []
        sd = step_spectral(StepProfile(A=1.0, R=0.0))
        g = sd.one_plus_r1r2_ray

        def sampled(s, *sp):
            points.append(np.size(s))
            return g(s, *sp)

        F_infinity(dataclasses.replace(sd, one_plus_r1r2_ray=sampled), -1.0)
        assert sum(points) < 5000

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7])
    def test_modulated_re_F_inf_is_cheap(self, R):
        # Once the table holds a ray's panels, its real part is the rule
        # over part of one panel; delta_data's pass gives the Im part.
        points = []
        sd = step_spectral(StepProfile(A=1.0, R=R))
        g = sd.one_plus_r1r2_ray

        def sampled(s, *sp):
            points.append(np.size(s))
            return g(s, *sp)

        sd = dataclasses.replace(sd, one_plus_r1r2_ray=sampled)
        for xi in (0.51, 5.0):
            F_infinity(sd, _k1(xi, 1.0))
        for xi in (0.6, 0.9, 2.0, 4.5):
            k1 = _k1(xi, 1.0)
            delta_data(sd, k1)
            points.clear()
            F_infinity(sd, k1)
            assert 0 < sum(points) <= 2 * rh._GL_N

    def test_non_finite_panel_raises(self):
        # A NaN of 1 + r1 r2 on the ray reaches a panel, which refuses it
        # instead of summing it into every later ray.
        sd = step_spectral(StepProfile(A=1.0, R=0.7))
        g = sd.one_plus_r1r2_ray

        def holed(s, sp=None):
            return np.where(np.abs(s + 1.95) < 0.02, np.nan, g(s, sp))

        sd = dataclasses.replace(sd, one_plus_r1r2_ray=holed)
        with pytest.raises(ToleranceNotMet, match="Re F_inf panel"):
            F_infinity(sd, -1.9)
        assert not rh._table(sd).edges[1]

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7])
    def test_far_rays_add_few_panels(self, R):
        # Panels toward -inf double in width: once 1 + r1 r2 has settled,
        # a ray from xi = 1e9 out to 1e16 adds about log2(1e7) of them.
        # Each piece matches the walker's int_{t1}^{-inf} minus the tail;
        # at xi = 1e4 it matches the tanh-sinh piece of the old code too.
        A = 1.0
        g = step_spectral(StepProfile(A=A, R=R)).one_plus_r1r2_ray

        def re(t):
            s = t - A
            return np.log(np.abs(g(s, t))) / (np.sqrt(A - s) * np.sqrt(-t))

        spec = IntegrandSpec(re, ray_decay(A))
        tail = semiinfinite_integral(spec, -A, tol=1e-11).real
        table = rh._RayTable()
        counts = []
        for xi in (1e4, 1e9, 1e16):
            t1 = _k1(xi, A) + A
            piece = rh._re_piece(table, re, A, t1)
            counts.append(len(table.edges[-1]))
            walked = semiinfinite_integral(spec, t1, tol=1e-11).real
            assert abs(piece - (walked - tail)) <= 1e-10
        old = -tanh_sinh(re, _k1(1e4, A) + A, -A, tol=1e-11)[0].real
        assert abs(rh._re_piece(table, re, A, _k1(1e4, A) + A) - old) <= 1e-10
        assert counts[2] - counts[1] <= 30
        assert counts[2] < 5000

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7])
    def test_far_ray_im_F_inf_is_finite(self, R):
        # From xi = 1e12 on, winding samples near k1 round onto one float.
        # Such a cell spans no s and adds nothing to Im F_inf, which stays
        # finite and tiny, without a warning.
        sd = step_spectral(StepProfile(A=1.0, R=R))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (1e12, 1e14, 1e16):
                F = modulated_params(sd, xi).F_inf
                assert cmath.isfinite(F)
                assert abs(F.imag) < 1e-20

    @pytest.mark.parametrize("fn", [F_infinity, delta_data])
    @pytest.mark.parametrize("k1", [float("nan"), -math.inf])
    def test_non_finite_k1_refused(self, step_sd, fn, k1):
        with pytest.raises(ValueError, match="finite"):
            fn(step_sd, k1)


def _smooth_odd(a, c):
    """tanh(a x) + i c x e^{-x^2}, an odd datum with background +-1."""

    def q(x):
        x = np.asarray(x, dtype=float)
        return np.tanh(a * x) + 1j * c * x * np.exp(-x * x)

    return q


class TestOddData:
    """Odd data, q0(-x) = -q0(x), give Im F_inf = 0 on every ray and a
    purely imaginary d(A)."""

    @pytest.mark.parametrize("a, c, w", [(3.0, 0.4, 3.0), (2.0, 0.3, 4.0)])
    def test_im_F_inf_vanishes(self, a, c, w):
        sd = jost_spectral(InitialData(_smooth_odd(a, c), w), 1.0, [])
        rays = [modulated_params(sd, xi).F_inf for xi in (0.75, -2.0)]
        for F in [*rays, central_params(sd, 0.2).F_inf]:
            assert abs(F.imag) <= 1e-15

    @pytest.mark.parametrize("w", [1.5, 3.0])
    def test_re_dA_vanishes(self, w):
        # The sampled centred step; d(A) of the smooth data takes seconds.
        sd = jost_spectral(InitialData(StepProfile(1.0, 0.0).sample, w), 1.0, [])
        dA = transition_dA(sd)
        assert abs(dA.real) <= 1e-13 * abs(dA)


def _class_datum(A=1.0, w=8.0):
    """Scattering data of q0 = tanh 2x + c e^{-(x-1)^2}, a non-odd datum in
    the checker's class: c solves c0(c) = 0 for the constant c0 of the
    small-k fit of a1_+, by Newton's method on (Re c, Im c) with a
    forward-difference Jacobian.  Returns (sd, c, |c0|)."""

    def fit(c):
        sampler = lambda x: complex(math.tanh(2.0 * x)) + c * math.exp(-((x - 1.0) ** 2))
        sd = jost_spectral(InitialData(sampler, w), A, [])
        a1 = [v[0] for v in sd.at(spectral._FIT_KS * A, CutSide.ABOVE)]
        return spectral._fit_small_k(a1, A)[0], sd

    c, h = complex(-0.07, 0.41), 1e-6
    for _ in range(5):
        c0, sd = fit(c)
        if abs(c0) < 1e-10:
            break
        dre, dim = ((fit(c + dc)[0] - c0) / h for dc in (h, 1j * h))
        jac = np.array([[dre.real, dim.real], [dre.imag, dim.imag]])
        step = np.linalg.solve(jac, [-c0.real, -c0.imag])
        c += complex(*step)
    return sd, c, abs(c0)


class TestNonOddClassDatum:
    """The abstract's claim on a datum that is not odd: the checker passes,
    and |q| on the modulated rays differs from A by a factor
    e^{-+2 Im F_inf} of opposite sense on the two sides of x = 0."""

    @pytest.fixture(scope="class")
    def class_sd(self):
        sd, c, c0 = _class_datum()
        assert c0 < 1e-10 and abs(c - complex(-0.070937, 0.410572)) < 1e-5
        return sd

    def test_checker_passes_with_an_endpoint_zero(self, class_sd):
        rep = check_assumptions(class_sd)
        assert rep.passed and rep.endpoint_zero_at_minus_A
        assert abs(rep.a10 - (-0.7212j)) < 1e-4
        assert abs(rep.a10.real) <= 1e-12 * abs(rep.a10)

    @pytest.mark.parametrize("xi", [0.55, 0.75, -0.55, -0.75])
    def test_modulus_departs_from_A_by_side(self, class_sd, xi):
        # 0.9621 and 0.9783 for xi > 0, 1.0394 and 1.0222 for xi < 0.
        side = 1.0 if xi > 0 else -1.0
        assert side * (1.0 - abs(q_modulated(class_sd, xi, 10.0))) > 1e-2

    def test_central_im_F_inf_vanishes(self, class_sd):
        # It reads -6.8e-6, the error of the winding interpolant (ROADMAP item 13).
        assert abs(central_params(class_sd, 0.2).F_inf.imag) < 1e-4


def test_accuracy_is_fixed_not_a_parameter():
    # The ray layer meets one fixed quadrature tolerance; none of its entry
    # points, nor the Jost route or the assumption checker, takes a knob.
    ray_layer = (
        delta_data, F_infinity, F_at, F_plus_at_zero, transition_dA, modulated_params,
        central_params, transition_params, q_modulated, q_central, q_transition,
        transition_continuous_at_zero,
    )
    for fn in ray_layer:
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    for fn in (jost_spectral, check_assumptions):
        assert not {"L", "ode_tol", "samples"} & set(inspect.signature(fn).parameters)
