"""Direct time integration of i q_t + q_xx + 2 q^2(x,t) conj(q)(-x,t) = 0.

Method of lines on a uniform grid symmetric about x = 0 (the nonlocal
term q^2(x) conj(q)(-x) is realized by the exact index reflection
m -> N - m, no interpolation), second-order central differences in
space, classic fourth-order Runge-Kutta in time, and exact Dirichlet
boundary values +-A e^{-2 i A^2 t}.

This solver is the independent oracle for the asymptotic evaluators:
nothing in it shares code with the Riemann-Hilbert machinery.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupDetected, GridTooCoarse
from .spectral import InitialData, StepProfile

_BLOWUP_FACTOR = 50.0


@dataclass(frozen=True)
class SolitonSpec:
    """Exact one-soliton initial datum A tanh(Ax - i phi0/2 - i pi/4)."""

    A: float
    phi0: float = 0.0

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"amplitude must be positive, got {self.A}")
        if not math.isfinite(self.phi0):
            raise ValueError(f"soliton phase must be finite, got {self.phi0}")


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-L, L] with N intervals (N even).

    Symmetry guarantees: x = 0 is the grid point N//2, and the index map
    m -> N - m realizes x -> -x exactly.
    """

    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"half-width must be positive, got {self.L}")
        if self.N <= 0 or self.N % 2 != 0:
            raise ValueError(f"N must be a positive even integer, got {self.N}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.N + 1)


@dataclass
class Field:
    """Complex field samples over a grid at time t."""

    t: float
    values: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class SimConfig:
    """Explicit-integration settings; dt must satisfy dt <= cfl_coeff dx^2."""

    dt: float
    t_end: float
    record_times: tuple = ()
    cfl_coeff: float = 0.2

    def __post_init__(self):
        if not self.dt >= 0:
            raise ValueError("dt must be nonnegative")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if self.dt == 0 and self.t_end > 0:
            raise ValueError(f"dt = 0 never reaches t_end = {self.t_end}")
        for rt in self.record_times:
            if not (math.isfinite(rt) and 0 <= rt <= self.t_end):
                raise ValueError(f"record time {rt} outside [0, t_end={self.t_end}]")

    def check_cfl(self, grid: Grid) -> None:
        limit = self.cfl_coeff * grid.dx**2
        if self.dt > limit * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt} violates stability bound {limit:.3e} "
                f"(cfl_coeff={self.cfl_coeff}, dx={grid.dx:.3e})"
            )


def init_field(q0, grid: Grid, mollify_width: float = 0.0) -> Field:
    """Sample an initial datum onto the grid at t = 0.

    Pure steps use the midpoint convention (value 0 at the jump); an
    optional tanh mollifier of the given width replaces the jump for
    convergence studies.  A NaN or infinite sample raises ValueError.
    """
    x = grid.x
    if isinstance(q0, StepProfile):
        if mollify_width > 0.0:
            vals = q0.A * np.tanh((x - q0.R) / mollify_width).astype(complex)
        else:
            vals = np.where(x > q0.R, q0.A, np.where(x < q0.R, -q0.A, 0.0)).astype(
                complex
            )
        amp = q0.A
    elif isinstance(q0, SolitonSpec):
        z = q0.A * x - 0.5j * q0.phi0 - 0.25j * np.pi
        vals = q0.A * np.tanh(z)
        amp = q0.A
    elif isinstance(q0, InitialData):
        vals = np.array([complex(q0.sampler(xi)) for xi in x], dtype=complex)
        amp = max(abs(vals[0]), abs(vals[-1]))
    else:
        raise TypeError(f"unsupported initial datum {type(q0).__name__}")

    # A grid has at least 3 points, and the largest jump is NaN or inf
    # exactly when some sample is (or when finite samples overflow).
    jump = float(np.max(np.abs(np.diff(vals))))
    if not math.isfinite(jump):
        bad = np.flatnonzero(~np.isfinite(vals))
        where = f" at x={x[bad[0]]:.6g} ({bad.size} samples)" if bad.size else ""
        raise ValueError(f"initial datum is not finite{where}")
    if amp > 0 and jump > 0.5 * amp:
        warnings.warn(
            f"initial datum jumps by {jump:.3g} (> 0.5 amplitude) within one "
            f"cell of width {grid.dx:.3g}",
            GridTooCoarse,
            stacklevel=2,
        )
    return Field(t=0.0, values=vals, grid=grid)


class _RK4Stepper:
    """Classic RK4 for the semi-discrete system, advancing a field in place.

    dq/dt = i q_xx + 2 i q^2 conj(q reflected) inside; the boundary
    entries follow the exact orbit of the Dirichlet values,
    dq/dt = -2 i A^2 q, and are reset onto it after every step.  The
    stage buffers are allocated once here, so a step allocates no array.
    """

    def __init__(self, grid: Grid, cfg: SimConfig, A: float):
        cfg.check_cfl(grid)
        n = grid.N + 1
        self.A = A
        self.dt = cfg.dt
        self.half_dt = 0.5 * cfg.dt
        self.dt6 = cfg.dt / 6.0
        # 1j * z / dx^2 and (i/dx^2) * z round identically: NumPy divides
        # by a real divisor as a product with its reciprocal.
        self.i_over_dx2 = 1j / grid.dx**2
        self.orbit = -2j * A * A
        self.k = np.empty(n, dtype=complex)
        self.acc = np.empty(n, dtype=complex)  # k1 + 2 k2 + 2 k3 + k4
        self.arg = np.empty(n, dtype=complex)
        self.scratch = np.empty(n - 2, dtype=complex)
        # The stage argument is free once a step is combined; its storage
        # holds |q| for the blow-up guard.
        self.abs_q = self.arg.view(float)[:n]

    def _rhs(self, q: np.ndarray) -> None:
        """k = i (q[m+1] - 2q[m] + q[m-1]) / dx^2 + 2i q[m]^2 conj(q[N-m]) inside.

        Each term is formed by the operations, in the order and with the
        operands, of that expression written with NumPy operators, so the
        stepper reproduces an allocating RK4 bit for bit; the nonlinear
        term goes first so that one scratch array suffices.
        """
        k, s = self.k, self.scratch
        inner, mid = k[1:-1], q[1:-1]
        np.square(mid, out=inner)
        np.multiply(2j, inner, out=inner)
        np.conjugate(q[-2:0:-1], out=s)
        np.multiply(inner, s, out=inner)
        np.multiply(2.0, mid, out=s)
        np.subtract(q[2:], s, out=s)
        np.add(s, q[:-2], out=s)
        np.multiply(self.i_over_dx2, s, out=s)
        np.add(s, inner, out=inner)
        k[0] = self.orbit * q[0]
        k[-1] = self.orbit * q[-1]

    def _stage_arg(self, q: np.ndarray, h: float) -> np.ndarray:
        np.multiply(self.k, h, out=self.arg)
        np.add(q, self.arg, out=self.arg)
        return self.arg

    def advance(self, q: np.ndarray, t: float) -> float:
        """Take one step of q (complex, modified in place) from time t and
        return the new time; raises BlowupDetected past 50A or on NaN/inf."""
        k, acc = self.k, self.acc
        self._rhs(q)
        np.copyto(acc, k)
        for _ in range(2):  # k2 and k3: both at the half step, both weighted 2
            self._rhs(self._stage_arg(q, self.half_dt))
            np.multiply(k, 2.0, out=self.arg)
            np.add(acc, self.arg, out=acc)
        self._rhs(self._stage_arg(q, self.dt))
        np.add(acc, k, out=acc)
        np.multiply(acc, self.dt6, out=acc)
        np.add(q, acc, out=q)
        t_new = t + self.dt
        bc = self.A * cmath.exp(self.orbit * t_new)
        q[0] = -bc
        q[-1] = bc
        peak = float(np.abs(q, out=self.abs_q).max())
        # Written as "not <=" so that a NaN or inf field counts as a blow-up.
        if not peak <= _BLOWUP_FACTOR * self.A:
            raise BlowupDetected(
                f"field reached {peak:.3g} (> {_BLOWUP_FACTOR}A) at t={t_new:.6g}",
                t=t_new,
                max_abs=peak,
            )
        return t_new


def step(fld: Field, cfg: SimConfig, A: float) -> Field:
    """One classic RK4 step; boundary values are reset to the exact
    Dirichlet orbit afterwards.  Returns a new Field; ``fld`` is unchanged."""
    stepper = _RK4Stepper(fld.grid, cfg, A)
    values = np.array(fld.values, dtype=complex)
    t = fld.t if cfg.dt == 0.0 else stepper.advance(values, fld.t)
    return Field(t, values, fld.grid)


def evolve(fld: Field, cfg: SimConfig, A: float) -> list[Field]:
    """March to t_end, returning snapshots at the requested record times
    (each rounded to the nearest step).  The field advances in place on a
    private copy; every snapshot owns its array and ``fld`` is unchanged."""
    stepper = _RK4Stepper(fld.grid, cfg, A)
    if cfg.dt > 0:
        n_steps = int(round(cfg.t_end / cfg.dt))
        record_steps = sorted({int(round(rt / cfg.dt)) for rt in cfg.record_times})
    else:
        n_steps, record_steps = 0, [0] if cfg.record_times else []
    q = np.array(fld.values, dtype=complex)
    t = fld.t
    snapshots: list[Field] = []
    if record_steps and record_steps[0] == 0:
        snapshots.append(Field(t, q.copy(), fld.grid))
        record_steps = record_steps[1:]
    for n in range(1, n_steps + 1):
        t = stepper.advance(q, t)
        if record_steps and n == record_steps[0]:
            snapshots.append(Field(t, q.copy(), fld.grid))
            record_steps = record_steps[1:]
    return snapshots


@dataclass(frozen=True)
class ErrorTable:
    """Per-snapshot discrepancies and a fitted algebraic decay exponent."""

    times: tuple
    sup_errors: tuple
    l2_errors: tuple
    fitted_exponent: float = field(default=float("nan"))


def compare(trajectory: list[Field], predictor, window: tuple[float, float]) -> ErrorTable:
    """Sup and L2 differences |q_num - predictor(x, t)| over an x-window.

    ``predictor`` is called as predictor(x, t) -> complex for each grid
    point in the window.  The fitted exponent is the slope of
    ln(sup error) against ln(t) over snapshots with t > 0.
    """
    xlo, xhi = window
    times, sups, l2s = [], [], []
    for fld in trajectory:
        x = fld.grid.x
        mask = (x >= xlo) & (x <= xhi)
        xs = x[mask]
        if xs.size == 0:
            raise ValueError(f"window {window} contains no grid points")
        pred = np.array([predictor(xi, fld.t) for xi in xs], dtype=complex)
        diff = np.abs(fld.values[mask] - pred)
        times.append(fld.t)
        sups.append(float(np.max(diff)))
        l2s.append(float(np.sqrt(np.sum(diff**2) * fld.grid.dx)))
    exponent = float("nan")
    pos = [(t, s) for t, s in zip(times, sups) if t > 0 and s > 0]
    if len(pos) >= 2:
        lt = np.log([t for t, _ in pos])
        ls = np.log([s for _, s in pos])
        exponent = float(np.polyfit(lt, ls, 1)[0])
    return ErrorTable(tuple(times), tuple(sups), tuple(l2s), exponent)
