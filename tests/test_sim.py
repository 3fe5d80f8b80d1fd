"""Direct method-of-lines solver: grid, stepping, recording, comparison."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnlstep import (
    BlowupDetected,
    Field,
    Grid,
    GridTooCoarse,
    InitialData,
    SimConfig,
    SolitonSpec,
    StepProfile,
    compare,
    evolve,
    init_field,
    q_soliton,
    step,
)
from nnlstep import nnls_sim
from nnlstep.nnls_sim import _RK4Stepper


class TestGrid:
    def test_symmetric_nodes(self):
        g = Grid(L=5.0, N=10)
        x = g.x
        assert x[0] == -5.0 and x[-1] == 5.0 and x[5] == 0.0
        assert np.allclose(x, -x[::-1])
        assert g.dx == pytest.approx(1.0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            Grid(L=5.0, N=11)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Grid(L=0.0, N=10)

    @pytest.mark.parametrize("L", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_half_width_rejected(self, L):
        with pytest.raises(ValueError, match="half-width"):
            Grid(L=L, N=10)


class TestSimConfig:
    def test_cfl_violation(self):
        g = Grid(L=5.0, N=100)  # dx = 0.1, bound = 0.002
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, t_end=1.0).check_cfl(g)
        SimConfig(dt=0.002, t_end=1.0).check_cfl(g)  # boundary case passes

    @pytest.mark.parametrize("t_end", [-0.1, float("nan"), float("inf")])
    def test_bad_t_end_rejected(self, t_end):
        with pytest.raises(ValueError):
            SimConfig(dt=0.001, t_end=t_end)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be nonnegative"):
            SimConfig(dt=-1.0, t_end=1.0)

    def test_zero_dt_rejected_when_time_passes(self):
        # evolve would return the t = 0 snapshot alone for t_end = 10.
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=10.0, record_times=(5.0, 10.0))
        SimConfig(dt=0.0, t_end=0.0)

    @pytest.mark.parametrize("rt", [-0.01, 1.01, float("nan"), float("inf")])
    def test_record_time_outside_run_rejected(self, rt):
        with pytest.raises(ValueError):
            SimConfig(dt=0.001, t_end=1.0, record_times=(0.5, rt))

    def test_unknown_bc_rejected(self):
        # Exact Dirichlet values are the only boundary condition; there is
        # no keyword to ask for another.
        with pytest.raises(TypeError):
            SimConfig(dt=0.001, t_end=1.0, bc_mode="Periodic")


class TestInitField:
    def test_step_midpoint_convention(self):
        g = Grid(L=5.0, N=10)
        with pytest.warns(GridTooCoarse):
            fld = init_field(StepProfile(A=1.0, R=0.0), g)
        assert fld.values[5] == 0.0
        assert fld.values[0] == -1.0 and fld.values[-1] == 1.0

    def test_mollified_step_no_warning(self):
        # A mollified step is a sampler: A tanh((x - R) / w) with w = 1.
        g = Grid(L=5.0, N=100)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = init_field(InitialData(lambda x: complex(math.tanh(x)), 5.0), g)
        assert abs(fld.values[-1] - math.tanh(5.0)) < 1e-12

    def test_soliton_matches_exact_profile(self):
        g = Grid(L=10.0, N=200)
        fld = init_field(SolitonSpec(A=1.0, phi0=0.3), g)
        for i in (0, 50, 100, 137):
            assert abs(fld.values[i] - q_soliton(1.0, 0.3, g.x[i], 0.0)) < 1e-12

    def test_sampled_data(self):
        g = Grid(L=8.0, N=64)
        data = InitialData(sampler=lambda x: complex(np.tanh(x)), decay_width=8.0)
        fld = init_field(data, g)
        assert fld.values[32] == 0.0
        assert abs(fld.values[-1] - math.tanh(8.0)) < 1e-12

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            init_field(object(), Grid(L=1.0, N=2))

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, -math.inf)])
    def test_non_finite_sample_rejected(self, bad):
        g = Grid(L=5.0, N=50)
        data = InitialData(
            sampler=lambda x: bad if abs(x - 1.0) < 1e-9 else complex(np.tanh(x)),
            decay_width=5.0,
        )
        with pytest.raises(ValueError, match="x=1"):
            init_field(data, g)

    def test_non_finite_soliton_phase_rejected(self):
        with pytest.raises(ValueError):
            init_field(SolitonSpec(A=1.0, phi0=math.inf), Grid(L=5.0, N=50))

    def test_non_finite_soliton_phase_refused_by_the_spec(self):
        with pytest.raises(ValueError, match="phase"):
            SolitonSpec(A=1.0, phi0=math.nan)


class TestStepping:
    def test_zero_dt_is_identity(self):
        g = Grid(L=10.0, N=100)
        fld = init_field(SolitonSpec(A=1.0), g)
        out = step(fld, SimConfig(dt=0.0, t_end=0.0), 1.0)
        assert out.t == 0.0
        assert np.array_equal(out.values, fld.values)
        assert out.values is not fld.values

    @pytest.mark.parametrize("dt", [0.0, 0.001])
    @pytest.mark.parametrize("record_times", [(), (0.0,)])
    def test_zero_length_run_records_what_was_asked(self, dt, record_times):
        fld = init_field(SolitonSpec(A=1.0), Grid(L=5.0, N=50))
        snaps = evolve(fld, SimConfig(dt=dt, t_end=0.0, record_times=record_times), 1.0)
        assert [s.t for s in snaps] == [0.0] * len(record_times)
        assert all(np.array_equal(s.values, fld.values) for s in snaps)

    def test_boundary_orbit(self):
        g = Grid(L=10.0, N=100)
        cfg = SimConfig(dt=0.005, t_end=0.1)
        fld = init_field(SolitonSpec(A=1.0), g)
        for _ in range(20):
            fld = step(fld, cfg, 1.0)
        bc = np.exp(-2j * fld.t)
        assert abs(fld.values[-1] - bc) < 1e-14
        assert abs(fld.values[0] + bc) < 1e-14

    def test_short_soliton_run_accuracy(self):
        A = 1.0
        g = Grid(L=20.0, N=400)
        cfg = SimConfig(dt=0.002, t_end=0.2, record_times=(0.2,))
        snaps = evolve(init_field(SolitonSpec(A=A), g), cfg, A)
        fld = snaps[-1]
        exact = np.array([q_soliton(A, 0.0, x, fld.t) for x in g.x])
        err = np.max(np.abs(fld.values - exact))
        assert err < 5e-3

    def test_blowup_detected(self):
        g = Grid(L=5.0, N=50)
        data = InitialData(sampler=lambda x: 80.0 * complex(np.tanh(x)), decay_width=5.0)
        fld = init_field(data, g)
        with pytest.raises(BlowupDetected) as exc:
            step(fld, SimConfig(dt=0.002, t_end=0.002), 1.0)
        assert exc.value.max_abs > 50.0

    def test_non_finite_field_is_blowup(self):
        # NaN compares False against any bound; the guard must still fire.
        # init_field refuses such data, so the field is built directly.
        g = Grid(L=5.0, N=50)
        values = np.tanh(g.x).astype(complex)
        values[25] = complex("nan")
        cfg = SimConfig(dt=0.002, t_end=0.1, record_times=(0.1,))
        with pytest.raises(BlowupDetected) as exc:
            evolve(Field(t=0.0, values=values, grid=g), cfg, 1.0)
        assert exc.value.t == pytest.approx(0.002)

    def test_infinite_field_is_blowup(self):
        g = Grid(L=5.0, N=50)
        values = np.tanh(g.x).astype(complex)
        values[25] = complex(0.0, -math.inf)
        # NumPy flags inf * 0 inside the stencil; the guard must still fire.
        with np.errstate(invalid="ignore"), pytest.raises(BlowupDetected):
            step(Field(t=0.0, values=values, grid=g), SimConfig(dt=0.002, t_end=0.002), 1.0)

    @pytest.mark.parametrize(
        "peak, phase",
        [(50.5, 0.0), (50.5, math.pi / 4), (36.0, 0.0), (49.5, math.pi / 4)],
        ids=["real_past_bound", "diagonal_past_bound", "real_36", "diagonal_below_bound"],
    )
    def test_blowup_guard_edge(self, peak, phase):
        # The guard screens with max(|Re q|, |Im q|) and takes the exact
        # max |q| only past 50A / sqrt(2): a real 50.5A must report |q|,
        # not sqrt(2) max(|Re|, |Im|); a diagonal 50.5A (|Re| = |Im| =
        # 35.7A) must still raise; a real 36A (screened in, under 50A) and
        # a diagonal 49.5A (screened out) must not.
        A, g = 1.0, Grid(L=5.0, N=50)
        values = np.tanh(g.x).astype(complex)
        values[10] = peak * complex(math.cos(phase), math.sin(phase))
        dt = 1e-6
        want = _reference_rk4(values.copy(), g.dx, dt, A, 1)
        want_peak = float(np.max(np.abs(want)))
        fld = Field(t=0.0, values=values, grid=g)
        cfg = SimConfig(dt=dt, t_end=dt)
        if want_peak > 50.0 * A:
            with pytest.raises(BlowupDetected) as exc:
                step(fld, cfg, A)
            assert exc.value.max_abs == pytest.approx(want_peak, rel=1e-12)
        else:
            out = step(fld, cfg, A)
            assert np.max(np.abs(out.values - want)) <= 1e-12 * want_peak


def _reference_rk4(q: np.ndarray, dx: float, dt: float, A: float, steps: int) -> np.ndarray:
    """Textbook classic RK4 of the documented semi-discrete system, one new
    array per operation: i q_xx + 2i q^2 conj(q(-x)) inside, the Dirichlet
    orbit -2i A^2 q at the ends, boundary values reset after each step."""

    def f(u):
        out = np.empty_like(u)
        reflected = np.conj(u[::-1])
        out[1:-1] = 1j * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2 + 2j * u[1:-1] ** 2 * reflected[1:-1]
        out[0] = -2j * A * A * u[0]
        out[-1] = -2j * A * A * u[-1]
        return out

    t = 0.0
    for _ in range(steps):
        k1 = f(q)
        k2 = f(q + 0.5 * dt * k1)
        k3 = f(q + 0.5 * dt * k2)
        k4 = f(q + dt * k3)
        q = q + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        bc = A * np.exp(-2j * A * A * t)
        q[0], q[-1] = -bc, bc
    return q


class TestInPlaceStepper:
    @settings(max_examples=60)
    @given(
        half_n=st.integers(4, 200),
        phi0=st.floats(-1.0, 1.0),
        cfl=st.floats(0.01, 1.0),
        steps=st.integers(1, 30),
    )
    # N = 40,000: OpenBLAS splits an axpy of more than about 10,000
    # entries over threads, and the drawn grids stay below that.
    @example(half_n=20000, phi0=0.3, cfl=1.0, steps=3)
    def test_matches_reference_rk4(self, half_n, phi0, cfl, steps):
        # dx = 0.25 keeps dt * |nonlinear rate| small at the largest dt.
        A, g = 1.0, Grid(L=0.25 * half_n, N=2 * half_n)
        dt = cfl * 0.2 * g.dx**2
        q0 = A * np.tanh(A * g.x - 0.5j * phi0 - 0.25j * np.pi)
        fld = Field(0.0, q0, g)
        cfg = SimConfig(dt=dt, t_end=steps * dt, record_times=(steps * dt,))
        last = evolve(fld, cfg, A)[-1]
        want = _reference_rk4(q0.copy(), g.dx, dt, A, steps)
        assert np.max(np.abs(last.values - want)) <= 1e-12 * np.max(np.abs(want))
        stepped = fld
        for _ in range(steps):
            stepped = step(stepped, cfg, A)
        assert stepped.t == last.t
        assert np.array_equal(stepped.values, last.values)

    def test_step_allocates_no_array(self):
        # A BLAS target that f2py had to copy would show up here as a
        # field-sized allocation, and its update would be lost.
        A, g = 1.0, Grid(L=100.0, N=4000)
        q = A * np.tanh(A * g.x - 0.25j * np.pi)
        stepper = _RK4Stepper(g, SimConfig(dt=0.2 * g.dx**2, t_end=1.0), A)
        t = stepper.advance(q, 0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                t = stepper.advance(q, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < q.nbytes

    def test_no_aliasing(self):
        g = Grid(L=10.0, N=100)
        with pytest.warns(GridTooCoarse):
            fld = init_field(SolitonSpec(A=1.0, phi0=0.3), g)
        before = fld.values.copy()
        cfg = SimConfig(dt=0.005, t_end=0.1, record_times=(0.0, 0.05, 0.1))
        snaps = evolve(fld, cfg, 1.0)
        assert np.array_equal(fld.values, before)
        arrays = [fld.values] + [s.values for s in snaps]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        kept = [s.values.copy() for s in snaps]
        snaps[1].values[:] = 7.0
        assert np.array_equal(snaps[0].values, kept[0])
        assert np.array_equal(snaps[2].values, kept[2])
        out = step(fld, cfg, 1.0)
        assert not np.shares_memory(out.values, fld.values)
        assert np.array_equal(fld.values, before)


def _centred_step(L: float, N: int) -> Field:
    g = Grid(L=L, N=N)
    with pytest.warns(GridTooCoarse):
        return init_field(StepProfile(A=1.0, R=0.0), g)


@pytest.fixture
def odd_calls(monkeypatch):
    """The oddness decisions that step and evolve take, in order."""
    calls = []
    is_odd = nnls_sim._is_odd

    def spy(q):
        calls.append(is_odd(q))
        return calls[-1]

    monkeypatch.setattr(nnls_sim, "_is_odd", spy)
    return calls


def _whole_line_evolve(monkeypatch, fld, cfg, A=1.0):
    """evolve with the whole-line step forced, as for data that are not odd."""
    with monkeypatch.context() as m:
        m.setattr(nnls_sim, "_is_odd", lambda q: False)
        return evolve(fld, cfg, A)


class TestOddHalfLine:
    """Exactly odd data are stepped on [0, L] as i q_t + q_xx - 2|q|^2 q = 0."""

    @pytest.mark.parametrize(
        "L, N",
        [(80.0, 3200), pytest.param(1000.0, 40000, marks=pytest.mark.slow)],
        ids=["3201_points", "40001_points"],
    )
    def test_matches_whole_line(self, L, N, monkeypatch, odd_calls):
        fld = _centred_step(L, N)
        dt = 0.2 * fld.grid.dx**2
        cfg = SimConfig(dt=dt, t_end=2000 * dt, record_times=(1000 * dt, 2000 * dt))
        snaps = evolve(fld, cfg, 1.0)
        assert odd_calls == [True]
        want = _whole_line_evolve(monkeypatch, fld, cfg)
        assert [s.t for s in snaps] == [w.t for w in want]
        for s, w in zip(snaps, want):
            assert s.values.shape == (N + 1,)
            assert np.array_equal(s.values[::-1], -s.values)
            assert s.values.base is None
            assert np.max(np.abs(s.values - w.values)) <= 1e-12 * np.max(np.abs(w.values))
        assert not np.shares_memory(snaps[0].values, snaps[1].values)

    def test_steps_equal_one_evolve(self, odd_calls):
        fld = _centred_step(5.0, 50)
        dt = 0.2 * fld.grid.dx**2
        cfg = SimConfig(dt=dt, t_end=20 * dt, record_times=(20 * dt,))
        last = evolve(fld, cfg, 1.0)[-1]
        stepped = fld
        for _ in range(20):
            stepped = step(stepped, cfg, 1.0)
        assert odd_calls == [True] * 21
        assert stepped.t == last.t
        assert np.array_equal(stepped.values, last.values)

    @pytest.mark.parametrize("datum", ["one_ulp_off", "odd_soliton"])
    def test_near_odd_data_take_the_whole_line(self, datum, monkeypatch, odd_calls):
        if datum == "one_ulp_off":
            fld = _centred_step(5.0, 50)
            fld.values[10] = np.nextafter(fld.values[10].real, 0.0)
        else:
            # A tanh(Ax) up to the rounding of its phase: 3.5e-15 off odd.
            fld = init_field(SolitonSpec(A=1.0, phi0=-math.pi / 2), Grid(L=20.0, N=800))
        dt = 0.2 * fld.grid.dx**2
        cfg = SimConfig(dt=dt, t_end=30 * dt, record_times=(15 * dt, 30 * dt))
        snaps = evolve(fld, cfg, 1.0)
        assert odd_calls == [False]
        want = _whole_line_evolve(monkeypatch, fld, cfg)
        assert all(np.array_equal(s.values, w.values) for s, w in zip(snaps, want))

    def test_default_stepper_is_whole_line(self):
        g = Grid(L=5.0, N=50)
        assert _RK4Stepper(g, SimConfig(dt=0.001, t_end=1.0), 1.0).n == g.N + 1
        assert _RK4Stepper(g, SimConfig(dt=0.001, t_end=1.0), 1.0, odd=True).n == g.N // 2 + 1

    def test_blowup_matches_whole_line(self, monkeypatch, odd_calls):
        # dt = 0.73 dx^2 is past the RK4 stability bound of the stencil, so
        # the step's jump grows by about 1.2 a step until the guard fires.
        fld = _centred_step(5.0, 50)
        cfg = SimConfig(dt=0.73 * fld.grid.dx**2, t_end=1.0, cfl_coeff=1.0)
        with pytest.raises(BlowupDetected) as half:
            evolve(fld, cfg, 1.0)
        assert odd_calls == [True]
        with pytest.raises(BlowupDetected) as whole:
            _whole_line_evolve(monkeypatch, fld, cfg)
        assert half.value.t == whole.value.t
        assert half.value.t > 5 * cfg.dt
        assert half.value.max_abs == pytest.approx(whole.value.max_abs, rel=1e-12)

    def test_half_line_step_allocates_no_array(self):
        A, g = 1.0, Grid(L=100.0, N=4000)
        q = np.where(g.x > 0, A, 0.0)[g.N // 2 :].astype(complex)
        stepper = _RK4Stepper(g, SimConfig(dt=0.2 * g.dx**2, t_end=1.0), A, odd=True)
        t = stepper.advance(q, 0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                t = stepper.advance(q, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < q.nbytes


class TestEvolveAndCompare:
    def test_record_times(self):
        g = Grid(L=10.0, N=100)
        cfg = SimConfig(dt=0.005, t_end=0.1, record_times=(0.0, 0.05, 0.1))
        snaps = evolve(init_field(SolitonSpec(A=1.0), g), cfg, 1.0)
        assert [round(s.t, 10) for s in snaps] == [0.0, 0.05, 0.1]

    def test_compare_exact_predictor(self):
        A = 1.0
        g = Grid(L=15.0, N=600)
        cfg = SimConfig(dt=5e-4, t_end=0.1, record_times=(0.05, 0.1))
        snaps = evolve(init_field(SolitonSpec(A=A), g), cfg, A)
        table = compare(snaps, lambda x, t: q_soliton(A, 0.0, x, t), (-5.0, 5.0))
        assert len(table.times) == 2
        assert max(table.sup_errors) < 2e-3
        assert max(table.l2_errors) < 2e-3

    def test_compare_fitted_exponent(self):
        g = Grid(L=1.0, N=10)
        fields = [
            Field(t=t, values=(t**-0.5) * np.ones(11, dtype=complex), grid=g)
            for t in (4.0, 8.0, 16.0)
        ]
        table = compare(fields, lambda x, t: 0.0, (-1.0, 1.0))
        assert table.fitted_exponent == pytest.approx(-0.5, abs=1e-12)

    def test_empty_window_rejected(self):
        g = Grid(L=1.0, N=10)
        fld = Field(t=1.0, values=np.ones(11, dtype=complex), grid=g)
        with pytest.raises(ValueError):
            compare([fld], lambda x, t: 0.0, (2.0, 3.0))
