"""Scattering data: closed forms, numerical Jost route, assumption checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from nnlstep import (
    BranchPointError,
    BranchPointProximity,
    CutSide,
    DivisionByZeroSpectral,
    InitialData,
    MissingNormingConstant,
    Source,
    StepProfile,
    check_assumptions,
    delta_data,
    f,
    jost_spectral,
    reflection,
    soliton_spectral,
    spectral,
    step_spectral,
    transition_dA,
    w,
)
from nnlstep.branches import background_matrix
from nnlstep.quadrature import IntegrandSpec, running_winding
from nnlstep.spectral import (
    _CELL_TOL,
    _CELL_WIDTH,
    _FIT_KS,
    _GAUSS,
    _MID,
    _Transfer,
    _half_cells,
    _lagrange,
    one_plus_r1r2,
)


@pytest.fixture
def norming_sweeps(monkeypatch):
    """The k = 0 norming sweeps made during the test."""
    calls = []

    def counted(*args, _sweep=spectral._norming_wronskian):
        calls.append(args)
        return _sweep(*args)

    monkeypatch.setattr(spectral, "_norming_wronskian", counted)
    return calls


def _det_relation(sd, k):
    """a1 a2 + b(k) conj(b(-conj k)) - 1, and the size of its two terms."""
    a1 = sd.a1(k, CutSide.OFF)
    a2 = sd.a2(k, CutSide.OFF)
    b = sd.b(k, CutSide.OFF)
    b_refl = sd.b(-np.conj(k), CutSide.OFF)
    return abs(a1 * a2 + b * np.conj(b_refl) - 1.0), abs(a1 * a2) + abs(b * b_refl)


# Real k = +-A(1 + 10^u) off the cut, and k = A(x + iy) in the upper half plane.
_real_k = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 1.3))
_upper_k = st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 3.0))

# The box A in [0.3, 3], R in [-2, 2], cut into one cell per parametrized case.
_A_CELLS = {0.5: (0.3, 0.75), 1.0: (0.75, 1.5), 2.0: (1.5, 3.0)}
_R_CELLS = {-1.0: (-2.0, -0.5), 0.0: (-0.5, 0.35), 0.7: (0.35, 2.0)}


class TestStepClosedForm:
    def test_centered_step_values(self):
        sd = step_spectral(StepProfile(A=1.0, R=0.0))
        assert sd.a1(2.0, CutSide.OFF) == pytest.approx(2.0 / math.sqrt(3.0))
        assert sd.a2(2.0, CutSide.OFF) == pytest.approx(2.0 / math.sqrt(3.0))
        assert sd.b(2.0, CutSide.OFF) == pytest.approx(-1j / math.sqrt(3.0))

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7])
    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    @settings(max_examples=30)
    @given(data=st.data(), real_k=_real_k, upper_k=_upper_k)
    def test_determinant_relation(self, R, A, data, real_k, upper_k):
        # (A, R) names the cell of the box the draw comes from.
        A = data.draw(st.floats(*_A_CELLS[A]), label="A")
        R = data.draw(st.floats(*_R_CELLS[R]), label="R")
        sd = step_spectral(StepProfile(A=A, R=R))
        sign, u = real_k
        assert _det_relation(sd, sign * A * (1.0 + 10.0**u))[0] < 1e-8
        # Off the axis the two terms grow like e^{4 |R| Im k} and cancel, so
        # the residual is measured against their size.
        residual, size = _det_relation(sd, A * complex(*upper_k))
        assert residual < 1e-8 * size

    def test_r_to_zero_limit(self):
        A = 1.0
        sd0 = step_spectral(StepProfile(A=A, R=0.0))
        for R in (1e-8, -1e-8):
            sd = step_spectral(StepProfile(A=A, R=R))
            for k in np.linspace(1.1, 8.0, 10):
                k = complex(k)
                assert abs(sd.a1(k, CutSide.OFF) - sd0.a1(k, CutSide.OFF)) < 1e-6
                assert abs(sd.b(k, CutSide.OFF) - sd0.b(k, CutSide.OFF)) < 1e-6

    @settings(max_examples=100)
    @given(A=st.floats(0.3, 3.0), R=st.floats(-2.0, 2.0),
           u=st.floats(-0.98, 0.98, exclude_min=True, exclude_max=True))
    def test_cut_identities(self, A, R, u):
        # a2_+ = -a1_- exactly, and det S = 1 above the cut,
        # a1_+ a2_+ + b_+^2 = 1, to rounding of its largest term.
        sd = step_spectral(StepProfile(A=A, R=R))
        x = np.array([u * A], dtype=complex)
        a1p, a2p, bp = (v[0] for v in sd.abc(x, CutSide.ABOVE))
        assert a2p == -sd.abc(x, CutSide.BELOW)[0][0]
        scale = max(1.0, abs(a1p * a2p), abs(bp) ** 2)
        assert abs(a1p * a2p + bp * bp - 1.0) <= 1e-12 * scale

    @settings(max_examples=100)
    @given(A=st.floats(0.3, 3.0), R=st.floats(-2.0, 2.0), real_k=_real_k, upper_k=_upper_k)
    def test_schwarz_symmetry(self, A, R, real_k, upper_k):
        sd = step_spectral(StepProfile(A=A, R=R))
        sign, u = real_k
        for k in (sign * A * (1.0 + 10.0**u), A * complex(*upper_k)):
            for fn in (sd.a1, sd.a2):
                assert np.conj(fn(-np.conj(k), CutSide.OFF)) == pytest.approx(fn(k, CutSide.OFF))

    @settings(max_examples=100)
    @given(A=st.floats(0.3, 3.0), R=st.floats(-2.0, 2.0),
           u=st.floats(-0.98, 0.98, exclude_min=True, exclude_max=True))
    def test_boundary_values_are_nontangential_limits(self, A, R, u):
        # f, w and (a1, a2, b) on either side of the cut are the limits of
        # their values at x +- i eps; (a1, a2, b) grow like e^{4 |R| A}, so
        # their gap is relative to their size.
        sd = step_spectral(StepProfile(A=A, R=R))
        x, eps = u * A, 1e-9 * A
        for sign, side in ((1.0, CutSide.ABOVE), (-1.0, CutSide.BELOW)):
            k = complex(x, sign * eps)
            assert abs(f(k, A) - f(x, A, side)) < 1e-6
            assert abs(w(k, A) - w(x, A, side)) < 1e-6
            near = sd.abc(np.array([k]), CutSide.OFF)
            on = sd.abc(np.array([x], dtype=complex), side)
            for got, ref in zip(near, on):
                assert abs(got[0] - ref[0]) < 1e-6 * max(1.0, abs(ref[0]))

    def test_a10_and_norming_constants(self):
        sd = step_spectral(StepProfile(A=2.0, R=0.0))
        assert sd.a10 == pytest.approx(-0.5j)
        assert sd.gamma_plus() == pytest.approx(-1.0)
        sd7 = step_spectral(StepProfile(A=1.0, R=0.7))
        assert sd7.gamma_plus() == pytest.approx(-math.cos(1.4))

    def test_boundary_values_on_cut(self):
        sd = step_spectral(StepProfile(A=1.0, R=0.0))
        x = 0.3
        above = sd.a1(x, CutSide.ABOVE)
        assert above == pytest.approx(x / (1j * math.sqrt(1 - x * x)))
        # a1 is k/f, so the two boundary values are opposite.
        assert sd.a1(x, CutSide.BELOW) == pytest.approx(-above)

    def test_analytic_across_vertical_axis(self):
        # The closed forms are even in the auxiliary root h, hence smooth
        # across its cut on the imaginary axis.
        sd = step_spectral(StepProfile(A=1.0, R=0.7))
        left = sd.a1(-1e-7 + 0.4j, CutSide.OFF)
        mid = sd.a1(0.4j, CutSide.OFF)
        right = sd.a1(1e-7 + 0.4j, CutSide.OFF)
        assert abs(left - mid) < 1e-5
        assert abs(right - mid) < 1e-5


class TestStepFormsAgree:
    @settings(max_examples=300)
    @given(
        A=st.floats(0.3, 3.0),
        R=st.floats(-2.0, 2.0),
        u=st.floats(-3.0, 1.3),
    )
    def test_vector_matches_scalar_on_ray(self, A, R, u):
        # The vectorized 1 + r1 r2 = 1/(a1 a2) of the quadratures against
        # the scalar closed form through b/a1 and conj(b(-s))/a2.
        sd = step_spectral(StepProfile(A=A, R=R))
        s = -A * (1.0 + 10.0**u)
        vec = complex(sd.one_plus_r1r2_ray(np.array([s]))[0])
        ref = one_plus_r1r2(sd, s)
        assert abs(vec - ref) <= 1e-10 * abs(ref)

    @settings(max_examples=300)
    @given(
        A=st.floats(0.3, 3.0),
        R=st.floats(-2.0, 2.0),
        u=st.floats(-15.0, 4.0),
    )
    def test_ray_kernel_matches_complex_path(self, A, R, u):
        # The real-arithmetic ray kernel against 1/(a1 a2) of abc's complex
        # closed form, from sp = s + A = -A 1e-15 out to |s| = 1e4 A.  sp is
        # taken back from the rounded s, so that both see one distance to -A.
        sd = step_spectral(StepProfile(A=A, R=R))
        s = np.array([-A * 10.0**u - A])
        a1, a2, _ = sd.abc(s.astype(complex), CutSide.OFF)
        ref = complex(1.0 / (a1 * a2)[0])
        vec = complex(sd.one_plus_r1r2_ray(s, s + A)[0])
        assert abs(vec - ref) <= 1e-13 * abs(ref)


class TestStepSampler:
    """StepProfile.sample: a float gives the complex of the np.where form;
    x = R is on the +A side."""

    @staticmethod
    def _where(prof, x):
        return np.where(np.asarray(x, dtype=float) >= prof.R, prof.A, -prof.A).astype(complex)

    @pytest.mark.parametrize("x", [
        -2.0, 0.1, 0.33, 0.5, math.inf, -math.inf,
        np.float64(0.33), np.float64(-0.7), np.float64(1e300),
    ])
    def test_scalar_matches_array_form(self, x):
        prof = StepProfile(1.5, 0.33)
        got = prof.sample(x)
        assert type(got) is complex
        assert got == complex(self._where(prof, x))

    def test_non_finite_step_location_rejected(self):
        with pytest.raises(ValueError, match="step location must be finite"):
            StepProfile(1.0, math.inf)

    def test_non_positive_decay_width_rejected(self):
        with pytest.raises(ValueError, match="decay_width must be positive"):
            InitialData(sampler=StepProfile(1.0, 0.0).sample, decay_width=0.0)

    def test_step_point_is_plus_A(self):
        prof = StepProfile(2.0, -0.5)
        assert prof.sample(-0.5) == prof.sample(np.float64(-0.5)) == 2.0
        assert prof.sample(np.nextafter(-0.5, -1.0)) == -2.0


class TestSolitonData:
    def test_reciprocal_product(self, soliton_sd):
        for k in (2.0, -3.1, 1.2 + 0.7j):
            prod = soliton_sd.a1(k, CutSide.OFF) * soliton_sd.a2(k, CutSide.OFF)
            assert prod == pytest.approx(1.0 + 0j)

    def test_large_k_limit(self, soliton_sd):
        assert abs(soliton_sd.a1(1e6, CutSide.OFF) - 1.0) < 1e-5

    def test_constants(self):
        sd = soliton_spectral(1.0, 0.3)
        assert sd.a10 == pytest.approx(-0.5j)
        assert sd.gamma_plus() == pytest.approx(-1j * cmath.exp(0.3j))
        assert sd.b(2.0, CutSide.OFF) == 0.0

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            soliton_spectral(0.0, 0.0)

    @pytest.mark.parametrize("phi0", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phi0):
        with pytest.raises(ValueError):
            soliton_spectral(1.0, phi0)


class TestReflection:
    def test_centered_step_reflection(self, step_sd):
        for k in (2.0, -3.0, 1.5):
            r1, r2 = reflection(step_sd, k)
            assert r1 == pytest.approx(-1j / k)
            assert r2 == pytest.approx(-1j / k)
            assert r1 * r2 + 1.0 == pytest.approx(f(k, 1.0) ** 2 / k**2)

    def test_reflectionless(self, soliton_sd):
        r1, r2 = reflection(soliton_sd, 2.0)
        assert r1 == 0.0 and r2 == 0.0

    def test_zero_denominator(self, soliton_sd):
        # a1_+ vanishes at k = 0 for the soliton data.
        with pytest.raises(DivisionByZeroSpectral):
            reflection(soliton_sd, 0.0, CutSide.ABOVE)

    def test_zero_second_denominator(self, soliton_sd):
        # Below the cut it is a2_- that vanishes at k = 0.
        with pytest.raises(DivisionByZeroSpectral, match="a2 vanishes"):
            reflection(soliton_sd, 0.0, CutSide.BELOW)


@pytest.fixture(scope="module")
def jost_step():
    prof = StepProfile(A=1.0, R=0.0)
    data = InitialData(sampler=prof.sample, decay_width=1.0)
    ks = np.concatenate([np.linspace(-8.0, -1.1, 10), np.linspace(1.1, 8.0, 10)])
    return jost_spectral(data, 1.0, k_samples=ks), ks


class TestJostRoute:

    def test_matches_closed_form(self, jost_step, step_sd):
        nd, ks = jost_step
        for k in ks:
            for fn_n, fn_c in ((nd.a1, step_sd.a1), (nd.a2, step_sd.a2), (nd.b, step_sd.b)):
                assert abs(fn_n(k, CutSide.OFF) - fn_c(k, CutSide.OFF)) < 1e-6

    def test_norming_constants(self, jost_step):
        nd, _ = jost_step
        assert abs(nd.gamma_plus() + 1.0) < 1e-6
        assert abs(nd.a10 + 1j) < 1e-3  # linear fit at finite offsets

    def test_source_tag(self, jost_step):
        nd, _ = jost_step
        assert nd.source is Source.NUMERIC_JOST

    def test_spline_interpolation_between_samples(self, jost_step, step_sd):
        nd, _ = jost_step
        k = 3.37  # not a sample point
        # A point between samples is one more transfer product, as accurate
        # as the samples themselves; the bound is the one a cubic spline
        # over the coarse sample grid used to meet here.
        assert abs(nd.a1(k, CutSide.OFF) - step_sd.a1(k, CutSide.OFF)) < 2e-3

    def test_jost_determinants_unimodular(self):
        # Every cell factor exp(Omega) has determinant e^{tr Omega} = 1.
        prof = StepProfile(A=1.0, R=0.5)
        data = InitialData(sampler=prof.sample, decay_width=1.0)
        t11, t12, t21, t22 = _Transfer(data).matrix(np.array([2.3, -1.7, 1.4 + 0.8j]))
        assert np.max(np.abs(t11 * t22 - t12 * t21 - 1.0)) < 1e-12

    @pytest.mark.parametrize("R", [0.33, -0.123456, 0.7, -1.0])
    def test_step_off_the_cell_grid(self, R):
        # No cell edge of the bisection sits on these jumps.
        prof = StepProfile(A=1.0, R=R)
        sd = step_spectral(prof)
        ks = np.array([1.1, 2.7, 6.3, 10.0])
        ks = np.concatenate([ks, -ks])
        nd = jost_spectral(InitialData(prof.sample, decay_width=1.5), 1.0, ks)
        for k in ks:
            for fn_n, fn_c in ((nd.a1, sd.a1), (nd.a2, sd.a2), (nd.b, sd.b)):
                assert abs(fn_n(k, CutSide.OFF) - fn_c(k, CutSide.OFF)) < 1e-10
        for k in _FIT_KS:
            assert abs(nd.a1(k, CutSide.ABOVE) - sd.a1(k, CutSide.ABOVE)) < 1e-10
        assert abs(nd.gamma_plus() + math.cos(2.0 * R)) < 1e-13

    @pytest.mark.parametrize("R", [0.7, -1.0])
    def test_cut_values_on_a_wide_grid(self, R):
        # On a grid of width 8 the Wronskians of a2_+ and a1_- would be read
        # through e^{2w|f|} = e^{15} at k = 0.3 (off by up to 7e-5); the
        # determinant gives them as accurately as b.
        prof = StepProfile(A=1.0, R=R)
        sd = step_spectral(prof)
        nd = jost_spectral(InitialData(prof.sample, decay_width=8.0), 1.0, [])
        ks = np.array([-0.9, -0.6, -0.3, 0.3, 0.6, 0.9], dtype=complex)
        for side in (CutSide.ABOVE, CutSide.BELOW):
            for got, ref in zip(nd.abc(ks, side), sd.abc(ks, side)):
                assert np.max(np.abs(got - ref) / np.abs(ref)) < 2e-9

    def test_smooth_data_match_dop853(self):
        # The commutator term of Omega only shows on data that vary inside
        # a cell; DOP853 at 1e-12 on the full Jost system is the reference.
        A, L = 1.0, 20.0

        def sampler(x):
            return np.tanh(2.0 * x) + 0.1j / np.cosh(3.0 * x)

        def reference(k):
            fk = f(k, A)

            def rhs(x, y):
                q, r = complex(sampler(x)), -np.conj(complex(sampler(-x)))
                y = y.reshape(2, 2)
                return np.array([-1j * k * y[0] + q * y[1], r * y[0] + 1j * k * y[1]]).ravel()

            def columns(E, x0):
                y0 = E * np.exp([-1j * x0 * fk, 1j * x0 * fk])
                sol = solve_ivp(rhs, (x0, 0.0), y0.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
                return sol.y[:, -1].reshape(2, 2)

            psi1 = columns(background_matrix(1, k, A), -L)
            psi2 = columns(background_matrix(2, k, A), L)
            det = np.linalg.det
            return (det(np.column_stack([psi1[:, 0], psi2[:, 1]])),
                    det(np.column_stack([psi2[:, 0], psi1[:, 1]])),
                    det(np.column_stack([psi2[:, 0], psi1[:, 0]])))

        ks = [-10.0, -4.1, -1.3, 1.3, 4.1, 10.0]
        nd = jost_spectral(InitialData(sampler, decay_width=14.0), A, ks)
        for k in ks:
            got = (nd.a1(k, CutSide.OFF), nd.a2(k, CutSide.OFF), nd.b(k, CutSide.OFF))
            assert max(abs(g - r) for g, r in zip(got, reference(k))) < 1e-9

    @staticmethod
    def _wide(width):
        def sampler(x):
            return np.tanh(2.0 * x) + 0.1j / np.cosh(3.0 * x)

        return jost_spectral(InitialData(sampler, decay_width=width), 1.0, [])

    def test_norming_constants_do_not_depend_on_width(self):
        ref = self._wide(10.0).gamma_plus()
        for width in (20.0, 24.0):
            assert abs(self._wide(width).gamma_plus() - ref) < 1e-10

    @pytest.mark.parametrize("width", [28.0, 32.0, 40.0])
    def test_unresolved_norming_constant_raises(self, width, norming_sweeps, ode_solves):
        # Past w = 24 the k = 0 columns turn parallel and their determinant
        # cancels below 1e-6 of the columns' norms.  The refusal is kept:
        # asking again raises without sweeping again.
        sd = self._wide(width)
        assert norming_sweeps == []
        for _ in range(2):
            with pytest.raises(MissingNormingConstant):
                transition_dA(sd)
        assert len(norming_sweeps) == 1
        assert cmath.isnan(sd.gamma_plus())
        assert ode_solves == []

    def test_norming_solves_run_on_first_use(self, norming_sweeps, ode_solves):
        # A build is transfer products only; the first d(A) sweeps the two
        # k = 0 columns and later calls reuse the Wronskian.
        prof = StepProfile(A=1.0, R=0.3)
        nd = jost_spectral(InitialData(prof.sample, decay_width=1.0), 1.0, [1.3, -1.3])
        reflection(nd, 1.3)
        assert norming_sweeps == []
        dA = transition_dA(nd)
        assert len(norming_sweeps) == 1
        assert transition_dA(nd) == dA and nd.gamma_plus() == nd.gamma_plus()
        assert len(norming_sweeps) == 1
        assert ode_solves == []

    def test_conjugate_symmetry(self):
        prof = StepProfile(A=1.0, R=0.5)
        data = InitialData(sampler=prof.sample, decay_width=1.0)
        ks = [2.0, -2.0, 3.5, -3.5]
        nd = jost_spectral(data, 1.0, k_samples=ks)
        for k in (2.0, 3.5):
            assert abs(np.conj(nd.a1(-k, CutSide.OFF)) - nd.a1(k, CutSide.OFF)) < 1e-8

    def test_smooth_data_determinant_relation(self):
        # Non-step datum: the unimodularity of the scattering matrix is the
        # only oracle available, and it must hold for any admissible datum.
        def sampler(x):
            return np.tanh(2.0 * x) + 0.1j / np.cosh(3.0 * x)

        data = InitialData(sampler=sampler, decay_width=14.0)
        ks = [-3.0, -1.8, 1.5, 2.5]
        nd = jost_spectral(data, 1.0, k_samples=ks)
        for k in ks:
            a1 = nd.a1(k, CutSide.OFF)
            a2 = nd.a2(k, CutSide.OFF)
            b = nd.b(k, CutSide.OFF)
            b_refl = nd.b(-k, CutSide.OFF)
            assert abs(a1 * a2 + b * np.conj(b_refl) - 1.0) < 1e-7

    def test_branch_point_guard(self):
        prof = StepProfile(A=1.0, R=0.0)
        data = InitialData(sampler=prof.sample, decay_width=1.0)
        with pytest.raises(BranchPointProximity):
            jost_spectral(data, 1.0, k_samples=[1.0])

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf")])
    @pytest.mark.parametrize("centre", [0.3, -0.3])
    def test_non_finite_datum_refused(self, bad, centre):
        # A NaN or infinite patch would otherwise give NaN scattering data.
        def sampler(x):
            return bad if abs(x - centre) < 0.01 else complex(math.tanh(2.0 * x))

        with pytest.raises(ValueError, match=rf"not finite at x={centre:.1f}"):
            jost_spectral(InitialData(sampler, decay_width=3.0), 1.0, [2.0, -2.0])

    def test_non_finite_merge_sample_refused(self, monkeypatch):
        # A merged cell samples new Gauss points; a NaN there is refused too.
        import nnlstep.spectral as spectral

        def smooth(x):
            return complex(math.tanh(2.0 * (x - 0.7)))

        merge_xs = []
        coarsen = spectral._coarsen

        def recording(sampler, *args):
            return coarsen(lambda x: merge_xs.append(x) or sampler(x), *args)

        monkeypatch.setattr(spectral, "_coarsen", recording)
        _half_cells(InitialData(smooth, decay_width=3.0))
        monkeypatch.setattr(spectral, "_coarsen", coarsen)
        x0 = merge_xs[0]

        def holed(x):
            return complex("nan") if x == x0 else smooth(x)

        with pytest.raises(ValueError, match=f"not finite at x={x0:.6g}"):
            jost_spectral(InitialData(holed, decay_width=3.0), 1.0, [2.0])

    def test_samples_and_fit_points_are_two_batches(self, monkeypatch):
        # reflection on a symmetric sample grid reads b(-k) from the
        # samples, so no k costs a transfer product of its own.
        sizes = []
        matrix = _Transfer.matrix

        def counted(self, k):
            sizes.append(k.size)
            return matrix(self, k)

        monkeypatch.setattr(_Transfer, "matrix", counted)
        prof = StepProfile(A=1.0, R=0.3)
        ks = [-7.5, -2.9, -1.3, 1.3, 2.9, 7.5]
        nd = jost_spectral(InitialData(prof.sample, decay_width=1.0), 1.0, ks)
        for k in ks:
            reflection(nd, k)
        assert sizes == [len(ks), len(_FIT_KS)]


def _oracle_sample(sampler, x):
    xs = np.concatenate([x, -x])
    return np.array([complex(sampler(float(t))) for t in xs], dtype=complex).reshape(2, -1)


def _oracle_half_cells(data):
    """The cell grid by the first design: breadth-first bisection on arrays
    and merges that grow a run by one cell per trial."""
    w = data.decay_width
    edges = np.linspace(0.0, w, math.ceil(w / _CELL_WIDTH) + 1)
    qe = _oracle_sample(data.sampler, edges)
    a, b, qa, qb = edges[:-1], edges[1:], qe[:, :-1], qe[:, 1:]
    floor = 8.0 * np.finfo(float).eps * w
    done = []
    while a.size:
        h = b - a
        c = a + 0.5 * h
        x = np.concatenate([c - _GAUSS * h, c + _GAUSS * h, c])
        q1, q2, qc = _oracle_sample(data.sampler, x).reshape(2, 3, -1).transpose(1, 0, 2)
        fit = np.tensordot(np.stack([qa, q1, q2, qb]), np.asarray(_MID), axes=(0, 0))
        split = (h * np.max(np.abs(qc - fit), axis=0) > _CELL_TOL) & (h > floor)
        keep = ~split
        qg = np.stack([q1, q2], axis=1)
        done.append((a[keep], b[keep], qa[:, keep], qb[:, keep], qg[:, :, keep]))
        a, b = np.concatenate([a[split], c[split]]), np.concatenate([c[split], b[split]])
        qa = np.concatenate([qa[:, split], qc[:, split]], axis=1)
        qb = np.concatenate([qc[:, split], qb[:, split]], axis=1)
    lo, hi, qa, qb, qg = (np.concatenate(part, axis=-1) for part in zip(*done))
    order = np.argsort(lo)
    lo, hi, qa, qb, qg = lo[order], hi[order], qa[:, order], qb[:, order], qg[..., order]
    gx = (0.5 * (lo + hi))[:, None] + np.outer(hi - lo, [-_GAUSS, _GAUSS])
    hs, qgs = [], []
    i = 0
    while i < lo.size:
        j, q = i, qg[:, :, i]
        while j + 1 < lo.size and hi[j + 1] - lo[i] <= _CELL_WIDTH:
            h = hi[j + 1] - lo[i]
            c = lo[i] + 0.5 * h
            qn = _oracle_sample(data.sampler, np.array([c - _GAUSS * h, c + _GAUSS * h]))
            fit = np.column_stack([qa[:, i], qn, qb[:, j + 1]]) @ _lagrange(
                (gx[i:j + 2].ravel() - c) / (0.5 * h)
            )
            fine = qg[:, :, i:j + 2].transpose(0, 2, 1).reshape(2, -1)
            if h * np.max(np.abs(fit - fine)) > _CELL_TOL:
                break
            j, q = j + 1, qn
        hs.append(hi[j] - lo[i])
        qgs.append(q)
        i = j + 1
    return np.array(hs), np.stack(qgs, axis=-1)


def _centred_step(x):
    """Pure centred step with the value 0 at the jump."""
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0


def _linear_161(x, nodes=np.linspace(-8.0, 8.0, 161)):
    q = np.tanh(2.0 * nodes) + 0.1j / np.cosh(3.0 * nodes)
    if x <= nodes[0]:
        return -1.0
    if x >= nodes[-1]:
        return 1.0
    return complex(np.interp(x, nodes, q.real), np.interp(x, nodes, q.imag))


class TestCellGrid:
    @pytest.mark.parametrize("sampler, width", [
        (_centred_step, 1.0),
        (StepProfile(1.0, 0.33).sample, 2.0),
        (StepProfile(2.0, -0.5).sample, 4.0),
        (lambda x: np.tanh(2.0 * (x - 0.7)) + 0.1j / np.cosh(3.0 * x), 10.0),
        (_linear_161, 8.0),
    ], ids=["centred_step", "step_1_0.33", "step_2_-0.5", "tanh", "linear_161"])
    def test_grid_matches_one_cell_per_trial_oracle(self, sampler, width):
        data = InitialData(sampler, decay_width=width)
        h, qg = _half_cells(data)
        ref_h, ref_qg = _oracle_half_cells(data)
        assert h.tobytes() == ref_h.tobytes()
        assert qg.tobytes() == ref_qg.tobytes()

    def test_lagrange_is_the_product_of_its_factors(self):
        # Row j is prod_{m != j} (t - x_m) / (x_j - x_m) over increasing m,
        # bit for bit; the oracle above reads _lagrange, so this pins it.
        nodes = [-1.0, -2.0 * _GAUSS, 2.0 * _GAUSS, 1.0]

        def products(t):
            return np.array([
                np.prod([(t - nodes[m]) / (nodes[j] - nodes[m]) for m in range(4) if m != j],
                        axis=0)
                for j in range(4)
            ])

        rng = np.random.default_rng(24)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            t = rng.uniform(-scale, scale, int(rng.integers(1, 1001)))
            got = _lagrange(t)
            assert got.shape == (4, t.size)
            assert got.tobytes() == products(t).tobytes()
        assert _MID == products(np.zeros(1))[:, 0].tolist()

    def test_centred_step_grid_sampler_calls(self):
        # Merges gallop: the 43-cell chain beside the jump at 0 merges in
        # 7 trials, not 42, so the grid takes 582 sampler calls, not 722.
        calls = []

        def counted(x):
            calls.append(x)
            return _centred_step(x)

        _half_cells(InitialData(counted, decay_width=1.0))
        assert len(calls) <= 600


class TestBranchPoints:
    def test_every_source_refuses_plus_minus_A(self, jost_step, soliton_sd):
        sources = [step_spectral(StepProfile(A=1.0, R=R)) for R in (0.0, 0.7)]
        for sd in sources + [soliton_sd, jost_step[0]]:
            for k in (1.0, -1.0):
                with pytest.raises(BranchPointError):
                    sd.a1(k, CutSide.OFF)

    def test_offset_step_refuses_plus_minus_iA(self):
        sd = step_spectral(StepProfile(A=1.0, R=0.7))
        for k in (1j, -1j):
            with pytest.raises(BranchPointError):
                sd.a1(k, CutSide.OFF)


class TestAssumptionReport:
    def test_centered_step_passes(self, step_sd):
        rep = check_assumptions(step_sd)
        assert rep.a1_winding == 0
        assert rep.simple_zero_at_origin
        assert rep.re_a10_small
        assert rep.winding_bound_ok
        assert rep.winding_sup < 1e-9
        assert rep.endpoint_zero_at_minus_A
        assert rep.passed

    def test_offset_step_fails(self):
        rep = check_assumptions(step_spectral(StepProfile(A=1.0, R=0.7)))
        assert rep.a1_winding != 0
        assert not rep.simple_zero_at_origin
        assert not rep.passed

    def test_soliton_passes(self, soliton_sd):
        rep = check_assumptions(soliton_sd)
        assert rep.a1_winding == 0
        assert rep.simple_zero_at_origin
        assert not rep.endpoint_zero_at_minus_A
        assert rep.passed

    @settings(max_examples=20)
    @given(A=st.floats(0.5, 2.0), R=st.floats(-1.5, 1.5))
    def test_ray_checks_match_scalar_path(self, A, R):
        # The winding bound and the endpoint zero through 1/(a1 a2) against
        # a per-point path through b/a1 and conj(b(-s))/a2.
        sd = step_spectral(StepProfile(A=A, R=R))

        def scalar(ks):
            return np.array([one_plus_r1r2(sd, float(k)) for k in np.atleast_1d(ks)],
                            dtype=complex)

        path = IntegrandSpec(eval=scalar, decay_estimate=max(1.0, 2.0 * A))
        _, cum = running_winding(path, -A * (1.0 + 1e-6))
        probe = one_plus_r1r2(sd, -A * (1.0 + 1e-8))
        ref = one_plus_r1r2(sd, -2.0 * A)
        rep = check_assumptions(sd)
        assert abs(rep.winding_sup - float(np.max(np.abs(cum)))) <= 1e-8
        assert rep.endpoint_zero_at_minus_A == (abs(probe) < 1e-6 * abs(ref))

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7, pytest.param(None, id="soliton")])
    def test_endpoint_zero_agrees_with_delta_data(self, R):
        sd = soliton_spectral(1.0, 0.0) if R is None else step_spectral(StepProfile(A=1.0, R=R))
        rep = check_assumptions(sd)
        assert rep.endpoint_zero_at_minus_A == delta_data(sd, -1.0).zero_at_minus_A

    @pytest.mark.parametrize("A, R", [(1.0, 1.5), (1.3, 1.2)])
    def test_contour_refines_fast_argument_changes(self, A, R):
        # Neighbouring contour samples here differ in argument by pi/2 or
        # more; the refined count is still a whole number of turns.
        rep = check_assumptions(step_spectral(StepProfile(A=A, R=R)))
        turns = rep.a1_winding_raw / (2 * np.pi)
        assert abs(turns - round(turns)) < 1e-6
        assert rep.a1_winding == round(turns) == 4
