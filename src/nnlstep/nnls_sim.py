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
    bc_mode: str = "DirichletExact"
    cfl_coeff: float = 0.2

    def __post_init__(self):
        if not self.dt >= 0:
            raise ValueError("dt must be nonnegative")
        if self.bc_mode != "DirichletExact":
            raise ValueError(f"unsupported bc_mode {self.bc_mode!r}")

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
    convergence studies.
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

    jump = float(np.max(np.abs(np.diff(vals)))) if len(vals) > 1 else 0.0
    if amp > 0 and jump > 0.5 * amp:
        warnings.warn(
            f"initial datum jumps by {jump:.3g} (> 0.5 amplitude) within one "
            f"cell of width {grid.dx:.3g}",
            GridTooCoarse,
            stacklevel=2,
        )
    return Field(t=0.0, values=vals, grid=grid)


def _rhs(q: np.ndarray, t: float, dx: float, A: float) -> np.ndarray:
    """dq/dt = i q_xx + 2 i q^2 conj(q reflected); boundary entries follow
    the exact orbit of the Dirichlet values, dq/dt = -2 i A^2 q."""
    out = np.empty_like(q)
    out[1:-1] = 1j * (q[2:] - 2.0 * q[1:-1] + q[:-2]) / dx**2 + 2j * q[1:-1] ** 2 * np.conj(
        q[::-1][1:-1]
    )
    out[0] = -2j * A * A * q[0]
    out[-1] = -2j * A * A * q[-1]
    return out


def step(fld: Field, cfg: SimConfig, A: float) -> Field:
    """One classic RK4 step; boundary values are reset to the exact
    Dirichlet orbit afterwards."""
    cfg.check_cfl(fld.grid)
    dt = cfg.dt
    if dt == 0.0:
        return Field(fld.t, fld.values.copy(), fld.grid)
    q, t, dx = fld.values, fld.t, fld.grid.dx
    k1 = _rhs(q, t, dx, A)
    k2 = _rhs(q + 0.5 * dt * k1, t + 0.5 * dt, dx, A)
    k3 = _rhs(q + 0.5 * dt * k2, t + 0.5 * dt, dx, A)
    k4 = _rhs(q + dt * k3, t + dt, dx, A)
    new = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t_new = t + dt
    bc = A * cmath.exp(-2j * A * A * t_new)
    new[0] = -bc
    new[-1] = bc
    peak = float(np.max(np.abs(new)))
    # Written as "not <=" so that a NaN or inf field counts as a blow-up.
    if not peak <= _BLOWUP_FACTOR * A:
        raise BlowupDetected(
            f"field reached {peak:.3g} (> {_BLOWUP_FACTOR}A) at t={t_new:.6g}",
            t=t_new,
            max_abs=peak,
        )
    return Field(t_new, new, fld.grid)


def evolve(fld: Field, cfg: SimConfig, A: float) -> list[Field]:
    """March to t_end, returning snapshots at the requested record times
    (each rounded to the nearest step)."""
    cfg.check_cfl(fld.grid)
    n_steps = int(round(cfg.t_end / cfg.dt)) if cfg.dt > 0 else 0
    record_steps = sorted(
        {min(max(int(round(rt / cfg.dt)), 0), n_steps) for rt in cfg.record_times}
    ) if cfg.dt > 0 else [0]
    snapshots: list[Field] = []
    current = Field(fld.t, fld.values.copy(), fld.grid)
    if record_steps and record_steps[0] == 0:
        snapshots.append(Field(current.t, current.values.copy(), current.grid))
        record_steps = record_steps[1:]
    for n in range(1, n_steps + 1):
        current = step(current, cfg, A)
        if record_steps and n == record_steps[0]:
            snapshots.append(Field(current.t, current.values.copy(), current.grid))
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
