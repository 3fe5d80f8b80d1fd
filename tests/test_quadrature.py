"""Singular quadrature primitives against closed forms and scipy oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nnlstep import (
    InconclusiveWinding,
    PoleOnContour,
    StepProfile,
    ToleranceNotMet,
    step_spectral,
)
from nnlstep.quadrature import (
    _WINDING_SAMPLES,
    IntegrandSpec,
    _arg_increment,
    _unit_level,
    cauchy_semiinfinite,
    cauchy_semiinfinite_pv,
    running_winding,
    semiinfinite_integral,
    tanh_sinh,
    unwound_steps,
)
from nnlstep.spectral import (
    CutSide,
    _closed_contour_winding,
    ray_decay,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestTanhSinh:
    def test_smooth(self):
        val, err = tanh_sinh(np.sin, 0.0, np.pi, tol=1e-12)
        assert abs(val - 2.0) < 1e-12

    def test_log_endpoint_singularity(self):
        val, _ = tanh_sinh(np.log, 0.0, 1.0, tol=1e-12)
        assert abs(val + 1.0) < 1e-11

    def test_inverse_sqrt_endpoint_singularity(self):
        val, _ = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12)
        assert abs(val - 2.0) < 1e-10

    def test_complex_integrand(self):
        val, _ = tanh_sinh(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
        assert abs(val - (np.sin(1.0) + 1j * (1 - np.cos(1.0)))) < 1e-12

    @pytest.mark.parametrize(
        "fn, a, b, tol, expected",
        [
            (np.log, 0.0, 1.0, 1e-12, ((-1 + 0j), 1.5143442055887135e-13)),
            (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-12,
             ((1.9999999999999998 + 0j), 3.3306690738754696e-15)),
            (lambda x: np.exp(1j * x), -3.0, 7.5, 1e-12,
             ((1.0791199848346067 - 1.3366278144354733j), 4.971395729802922e-13)),
            (lambda t: np.log(t) / np.sqrt(t), 0.0, 1.0, 1e-10,
             ((-3.9999999999999734 + 0j), 1.0658141036401503e-14)),
        ],
        ids=["log", "inverse_sqrt", "exp_ix", "log_over_sqrt"],
    )
    def test_values_are_pinned(self, fn, a, b, tol, expected):
        # Exact values of the rule that builds its nodes and weights per
        # call; the cached unit data must map to [a, b] in that order.
        val, err = tanh_sinh(fn, a, b, tol=tol)
        assert (complex(val), float(err)) == expected

    def test_cold_and_warm_cache_agree(self):
        def fn(x):
            return np.log(x) * np.cos(3.0 * x)

        _unit_level.cache_clear()
        cold = tanh_sinh(fn, 0.0, 2.0, tol=1e-12)
        warm = tanh_sinh(fn, 0.0, 2.0, tol=1e-12)
        assert repr(cold) == repr(warm)

    @pytest.mark.parametrize("max_level", [0, 3, 6])
    def test_cache_holds_the_levels_reached(self, max_level):
        _unit_level.cache_clear()
        with pytest.raises(ToleranceNotMet):
            tanh_sinh(lambda x: np.sin(200.0 * x), 0.0, 10.0, tol=1e-14, max_level=max_level)
        assert _unit_level.cache_info().currsize == max_level + 1
        tanh_sinh(np.sin, 0.0, np.pi, tol=1e-12)
        assert _unit_level.cache_info().currsize <= 15

    def test_nothing_is_built_at_import(self):
        code = "import nnlstep.quadrature as q; print(q._unit_level.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "0"

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="tanh-sinh stops when two levels agree to tol, and on a wide cell of an "
        "oscillating integrand they can agree by chance: here the error estimate is "
        "1.9e-10 and the value 1.07e-6 against 1.06e-8; the semi-infinite walker "
        "doubles its cells without bound, so it meets such cells",
    )
    def test_wide_oscillating_cell(self):
        # The Re F_inf integrand of the step A = 1, R = 1.5 on the 9th cell of
        # the walk from the ray xi = 1.5: about 245 periods, modulus <= 6e-8.
        g = step_spectral(StepProfile(A=1.0, R=1.5)).one_plus_r1r2_ray

        def fn(s):
            return np.log(np.abs(g(s))) / np.sqrt(s * s - 1.0)

        a, b = -512.7807764064044, -256.7807764064044
        val, _ = tanh_sinh(fn, a, b, tol=1e-9)
        ref, _ = quad(lambda s: fn(np.array([s]))[0].real, a, b,
                      limit=2000, epsabs=1e-15, epsrel=1e-12)
        assert abs(val - ref) < 1e-9


def _per_level_tanh_sinh(fn, a, b, tol, max_level):
    """Reference rule: one call of fn per level, each level mapped and
    summed on its own."""
    half = 0.5 * (b - a)

    def _sample(level):
        right, e2u, one_plus, cosh_t, sech2 = _unit_level(level)
        delta = half * 2.0 * e2u / one_plus
        x = np.where(right, b - delta, a + delta)
        wgt = half * 0.5 * np.pi * cosh_t * sech2
        keep = (x > a) & (x < b) & (wgt > 0)
        vals = np.asarray(fn(x[keep]), dtype=complex)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return np.sum(vals * wgt[keep])

    h = 1.0
    total = prev = _sample(0)
    err = np.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        total = 0.5 * prev + _sample(level) * h
        err = abs(total - prev)
        if level >= 3 and err < tol:
            return total, err
        prev = total
    if err < 10 * tol:
        return total, err
    raise ToleranceNotMet("reference", best=total, error=err)


def _outcome(rule, fn, a, b, tol, max_level):
    """repr of (value, err), or of (best, error) when the rule gives up,
    and the number of calls of fn."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return fn(x)

    try:
        got = ("ok", rule(counted, a, b, tol=tol, max_level=max_level))
    except ToleranceNotMet as exc:
        got = ("raised", (exc.best, exc.error))
    return repr(got), len(calls)


def _flagged(x, a):
    # inf or NaN on roughly one node in six, anywhere in the cell.
    phase = np.floor(6.0 * np.abs(np.sin(1e4 * (x - a))))
    return np.where(phase == 0, np.inf, np.where(phase == 1, np.nan, np.cos(x)))


_INTEGRANDS = {
    "smooth": lambda a: lambda x: np.exp(-x * x) * np.cos(3.0 * x),
    "log_endpoint": lambda a: lambda x: np.log(x - a),
    "inverse_sqrt_endpoint": lambda a: lambda x: 1.0 / np.sqrt(x - a),
    "oscillating": lambda a: lambda x: np.exp(17.0j * x),
    "inf_and_nan": lambda a: lambda x: _flagged(x, a),
}


class TestBatchedLevels:
    """Levels 0-3 in one call of fn, later levels one call each: the same
    nodes and the same sums, bit for bit, as one call per level."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(_INTEGRANDS)),
        a=st.floats(-50.0, 50.0),
        log_width=st.floats(-6.0, 3.0),
        tol=st.sampled_from([1e-6, 1e-10, 1e-14]),
        max_level=st.integers(0, 14),
    )
    def test_matches_per_level_loop(self, name, a, log_width, tol, max_level):
        b = a + 10.0**log_width
        fn = _INTEGRANDS[name](a)
        got, calls = _outcome(tanh_sinh, fn, a, b, tol, max_level)
        want, ref_calls = _outcome(_per_level_tanh_sinh, fn, a, b, tol, max_level)
        assert got == want
        # Stopping at level L >= 3 is one call for levels 0-3 plus L - 3.
        assert calls == max(1, ref_calls - 3)

    @pytest.mark.parametrize("max_level, calls", [(0, 1), (1, 1), (2, 1), (3, 1), (5, 3)])
    def test_calls_without_convergence(self, max_level, calls):
        seen = []

        def fn(x):
            seen.append(x.size)
            return np.sin(200.0 * x)

        with pytest.raises(ToleranceNotMet):
            tanh_sinh(fn, 0.0, 10.0, tol=1e-14, max_level=max_level)
        assert len(seen) == calls


class TestSemiInfinite:
    def test_plain_exponential(self):
        spec = IntegrandSpec(lambda z: np.exp(2.0 * z), decay_estimate=0.5)
        val = semiinfinite_integral(spec, 0.0, tol=1e-10)
        assert abs(val - 0.5) < 1e-10

    def test_cauchy_vs_quad(self):
        pole = 0.5 + 0.7j
        spec = IntegrandSpec(lambda z: np.exp(z), decay_estimate=1.0)
        got = cauchy_semiinfinite(spec, 0.0, pole, tol=1e-10)
        re, _ = quad(lambda z: (np.exp(z) / (z - pole)).real, -60, 0, limit=400)
        im, _ = quad(lambda z: (np.exp(z) / (z - pole)).imag, -60, 0, limit=400)
        assert abs(got - complex(re, im)) < 1e-8

    def test_pole_close_to_contour_rejected(self):
        spec = IntegrandSpec(lambda z: np.exp(z))
        with pytest.raises(PoleOnContour):
            cauchy_semiinfinite(spec, 0.0, -1.0 + 1e-10j)

    def test_principal_value_vs_quad(self):
        for x0 in (-2.0, -0.3, -30.0):
            g = lambda z: np.exp(-((z - x0) ** 2))
            spec = IntegrandSpec(g, decay_estimate=2.0)
            got = cauchy_semiinfinite_pv(spec, 0.0, x0, tol=1e-10)
            # scipy computes PV int g(z)/(z - x0) via weight='cauchy'
            ref, _ = quad(g, x0 - 40.0, 0.0, weight="cauchy", wvar=x0, limit=400)
            assert abs(got - ref) < 1e-8

    @pytest.mark.parametrize("x0", [-2.0, -0.3, -30.0])
    def test_principal_value_with_log_singularity_at_upper(self, x0):
        # ln(-z) e^z has an integrable log singularity at upper = 0.  The
        # reference takes [x0 - 60, x0/2] with quad's Cauchy weight and
        # [x0/2, 0], in w = -z, with its log weight ln(w) on [0, -x0/2].
        g = lambda z: np.log(-z) * np.exp(z)
        spec = IntegrandSpec(g, decay_estimate=1.0)
        got = cauchy_semiinfinite_pv(spec, 0.0, x0, tol=1e-10)
        mid = 0.5 * x0
        head, _ = quad(g, x0 - 60.0, mid, weight="cauchy", wvar=x0, limit=400)
        tail, _ = quad(lambda w: np.exp(-w) / (w + x0), 0.0, -mid, weight="alg-loga",
                       wvar=(0.0, 0.0), limit=400)
        assert abs(got - (head - tail)) < 1e-8

    def test_pv_point_must_be_interior(self):
        spec = IntegrandSpec(lambda z: np.exp(z))
        with pytest.raises(PoleOnContour):
            cauchy_semiinfinite_pv(spec, 0.0, 0.0)


class TestRayWalkerFailure:
    """A constant integrand never meets the tail stop rule of the cell walk."""

    @pytest.mark.parametrize(
        "integrate",
        [
            lambda spec: semiinfinite_integral(spec, 0.0),
            lambda spec: cauchy_semiinfinite(spec, 0.0, 1.0 + 1.0j),
        ],
        ids=["plain", "cauchy"],
    )
    def test_non_decaying_integrand_raises(self, integrate):
        spec = IntegrandSpec(lambda z: np.ones_like(z, dtype=complex))
        with pytest.raises(ToleranceNotMet) as exc:
            integrate(spec)
        assert np.isfinite(exc.value.best)
        assert np.isfinite(exc.value.error)


class TestWinding:
    def test_moebius_path(self):
        # gamma(s) = (s - i)/(s + i): arg = atan2(-2s, s^2-1), winding to pi.
        def path(s):
            s = np.asarray(s, dtype=float)
            return (s - 1j) / (s + 1j)

        k_end = -0.01
        got = running_winding(IntegrandSpec(path, decay_estimate=1.0), k_end)[1][-1]
        want = math.atan2(-2 * k_end, k_end * k_end - 1.0)
        assert abs(got - want) < 1e-6

    def test_trivial_path(self):
        spec = IntegrandSpec(lambda s: np.ones_like(s, dtype=complex))
        got = running_winding(spec, -1.0)[1][-1]
        assert abs(got) < 1e-12

    def test_running_winding_monotone_grid(self):
        spec = IntegrandSpec(lambda s: np.ones_like(s, dtype=complex))
        grid, cum = running_winding(spec, -2.0)
        assert grid[-1] == pytest.approx(-2.0)
        assert np.all(np.diff(grid) > 0)
        assert np.max(np.abs(cum)) < 1e-12


def _sequential_running_winding(gamma, k_end, samples):
    """Reference unwinding: the tail probe and grid of running_winding,
    then one _arg_increment per neighbouring pair, accumulated sample by
    sample."""
    T = max(10.0 * gamma.decay_estimate, 10.0)
    for _ in range(20):
        probe = np.asarray(gamma.eval(np.array([k_end - 4 * T, k_end - T])), dtype=complex)
        if abs(np.angle(probe[1] / probe[0])) < 1e-9 and abs(np.angle(probe[0])) < 0.1:
            break
        T *= 4.0
    grid = k_end - T * np.linspace(1.0, 0.0, samples) ** 2
    vals = np.asarray(gamma.eval(grid), dtype=complex)
    cum = np.empty(samples)
    cum[0] = np.angle(vals[0])
    for i in range(samples - 1):
        cum[i + 1] = cum[i] + _arg_increment(
            gamma.eval, grid[i], grid[i + 1], vals[i], vals[i + 1]
        )
    return grid, cum


def _sequential_contour_winding(a1, A):
    """Reference for the a1 contour: the same rectangle of 2,000 samples,
    one _arg_increment per neighbouring pair, summed in order."""
    eps, big, top = 0.02 * A, 12.0 * A, 8.0 * A
    corners = [-big + 1j * eps, big + 1j * eps, big + 1j * top, -big + 1j * top, -big + 1j * eps]
    s = np.linspace(0.0, 1.0, 500, endpoint=False)
    pts = np.concatenate(
        [z0 + (z1 - z0) * s for z0, z1 in zip(corners[:-1], corners[1:])] + [corners[-1:]]
    )
    vals = a1(pts)
    total = 0.0
    for z0, z1, v0, v1 in zip(pts[:-1], pts[1:], vals[:-1], vals[1:]):
        total += _arg_increment(lambda u, z0=z0, dz=z1 - z0: a1(z0 + dz * u), 0.0, 1.0, v0, v1)
    return total


class TestArrayUnwinding:
    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7, 1.5])
    @pytest.mark.parametrize("k_end", [-1.0 - 1e-6, -1.3, -2.5, -6.0])
    def test_matches_sequential_loop_bitwise(self, R, k_end):
        sd = step_spectral(StepProfile(A=1.0, R=R))
        spec = IntegrandSpec(sd.one_plus_r1r2_ray, decay_estimate=ray_decay(1.0))
        grid, cum = running_winding(spec, k_end)
        ref_grid, ref_cum = _sequential_running_winding(spec, k_end, _WINDING_SAMPLES)
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(cum, ref_cum)

    def test_algebraic_tail_needs_a_second_block(self):
        # arg ((s - z0)/(s - conj z0))^2 decays like 4 Im z0 / |s|: the pair
        # is quiet only from T ~ 1e7 on, past the first block's 4^8 T0.
        z0 = -1.5 + 0.002j
        spec = IntegrandSpec(lambda s: ((s - z0) / (s - np.conj(z0))) ** 2, decay_estimate=1.0)
        grid, cum = running_winding(spec, -1.0)
        ref_grid, ref_cum = _sequential_running_winding(spec, -1.0, _WINDING_SAMPLES)
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(cum, ref_cum)
        assert 10.0 * 4**8 < -1.0 - grid[0] < 10.0 * 4**16

    def test_sign_flip_is_inconclusive_at_max_refinement(self):
        # A jump by pi never shrinks under bisection.
        def path(s):
            return np.where(np.real(s) < 0.3, -1.0, 1.0) + 0j

        with pytest.raises(InconclusiveWinding, match="at max refinement"):
            unwound_steps(path, np.array([0.0, 1.0]))

    def test_non_finite_sample_raises(self):
        # NaN fails the pi/2 test, so a NaN sample would be summed into
        # every later cumulative argument; a NaN midpoint would be bisected
        # without end.  The NaN comes from np.where, so no warning fires.
        def path(s):
            s = np.asarray(s, dtype=float)
            return np.where(np.abs(s + 3.0) < 0.01, np.nan, 1.0 + 0.5j * np.exp(-((s + 3.0) ** 2)))

        with pytest.raises(InconclusiveWinding, match="non-finite"):
            running_winding(IntegrandSpec(path, decay_estimate=1.0), -1.5)
        with pytest.raises(InconclusiveWinding, match="non-finite"):
            _arg_increment(path, -3.5, -2.5, 1.0 + 0j, -1.0 + 0j)

        def a1(z):
            return np.where(np.abs(z - (12.0 + 4.0j)) < 0.05, np.nan, z + 2.0j)

        with pytest.raises(InconclusiveWinding, match="non-finite"):
            _closed_contour_winding(a1, 1.0)

    def test_non_finite_tail_probe_is_named(self):
        # From s = -1 - 10 * 4^7 on the path is infinite: inf / inf pairs
        # are NaN, so no pair is quiet, and the quotients warn nothing.
        def path(s):
            return np.where(np.asarray(s) < -1e5, np.inf, -1.0).astype(complex)

        with pytest.raises(InconclusiveWinding, match=r"non-finite path sample at -163841\.0$"):
            running_winding(IntegrandSpec(path, decay_estimate=1.0), -1.0)

    def test_unsettled_path_raises(self):
        spec = IntegrandSpec(lambda s: -np.ones_like(s, dtype=complex))
        with pytest.raises(InconclusiveWinding):
            running_winding(spec, -1.0)

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7])
    @pytest.mark.parametrize("z0", [None, -1.5 + 0.002j])
    def test_probe_stays_within_4_to_the_8_rungs(self, R, z0):
        seen = []
        g = step_spectral(StepProfile(A=1.0, R=R)).one_plus_r1r2_ray

        def path(s):
            seen.append(np.asarray(s))
            vals = g(s)
            return vals if z0 is None else vals * ((s - z0) / (s - np.conj(z0))) ** 2

        k_end = -2.5
        grid, _ = running_winding(IntegrandSpec(path, decay_estimate=ray_decay(1.0)), k_end)
        T = k_end - grid[0]
        assert np.max(k_end - np.concatenate(seen)) <= 4**8 * T

    def test_unresolved_turn_is_bisected(self):
        # The argument climbs by 6 pi over a width of about 0.1 near -1.5,
        # far faster than the sample grid resolves, so steps get bisected.
        calls = []

        def path(s):
            s = np.asarray(s, dtype=float)
            calls.append(s.size)
            return np.exp(3j * np.pi * (1.0 + np.tanh((s + 1.5) / 0.03)))

        _, cum = running_winding(IntegrandSpec(path, decay_estimate=1.0), -1.0)
        assert len(calls) > 2  # the probe block and the batch, then midpoints
        assert abs(cum[-1] - 3 * np.pi * (1.0 + np.tanh(0.5 / 0.03))) < 1e-9

    @pytest.mark.parametrize("R", [-1.0, 0.0, 0.7, 1.5])
    def test_closed_contour_winding_matches_sequential_loop(self, R):
        sd = step_spectral(StepProfile(A=1.0, R=R))

        def a1(z):
            return sd.abc(z, CutSide.OFF)[0]

        got = _closed_contour_winding(a1, 1.0)
        assert type(got) is float
        assert got == _sequential_contour_winding(a1, 1.0)
        if R == 1.5:
            # Neighbouring samples turn by pi/2 or more: bisection runs.
            assert abs(got - 4 * 2 * np.pi) < 1e-6


def test_complex_over_real_is_product_with_reciprocal():
    # The walker's Cauchy point at a real pole and d(A)'s integrand
    # multiply by 1/x where the quotient by the real x is meant.  NumPy
    # divides a complex by a real exactly so, bit for bit.
    rng = np.random.default_rng(25)
    n = 200_000
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    assert np.array_equal((z / x).view(np.int64), (z * (1.0 / x)).view(np.int64))
