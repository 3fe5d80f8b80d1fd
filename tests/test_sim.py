"""Direct method-of-lines solver: grid, stepping, recording, comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        g = Grid(L=5.0, N=100)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = init_field(StepProfile(A=1.0, R=0.0), g, mollify_width=1.0)
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

    def test_no_aliasing(self):
        g = Grid(L=10.0, N=100)
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
