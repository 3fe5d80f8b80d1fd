"""Direct time integration of i q_t + q_xx + 2 q^2(x,t) conj(q)(-x,t) = 0.

Method of lines on a uniform grid symmetric about x = 0 (the nonlocal
term q^2(x) conj(q)(-x) is realized by the exact index reflection
m -> N - m, no interpolation), second-order central differences in
space, classic fourth-order Runge-Kutta in time, and exact Dirichlet
boundary values +-A e^{-2 i A^2 t}.  The RK4 stages are carried as
kt = k / (2i) and combined by level-1 BLAS updates (``zaxpy``,
``zcopy``), in place on buffers allocated once per run.

On odd data conj(q(-x)) = -conj(q(x)), so the equation reduces to the
local defocusing NLS i q_t + q_xx - 2|q|^2 q = 0, which keeps them odd.
``step``, ``evolve`` (and so the CLI's ``simulate`` and ``compare``)
step a field that is exactly odd on the grid, q[N-m] == -q[m] for every
m, on the half-line [0, L] alone and mirror it back; every other field
takes the whole-line step.

This solver is the independent oracle for the asymptotic evaluators:
nothing in it shares code with the Riemann-Hilbert machinery.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import zaxpy, zcopy

from .branches import _check_amplitude
from .errors import BlowupDetected, GridTooCoarse
from .spectral import InitialData, StepProfile

_BLOWUP_FACTOR = 50.0


@dataclass(frozen=True)
class SolitonSpec:
    """Exact one-soliton initial datum A tanh(Ax - i phi0/2 - i pi/4)."""

    A: float
    phi0: float = 0.0

    def __post_init__(self):
        _check_amplitude(self.A)
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
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"half-width must be positive and finite, got {self.L}")
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


def init_field(q0, grid: Grid) -> Field:
    """Sample an initial datum onto the grid at t = 0.

    Pure steps use the midpoint convention (value 0 at the jump); a
    mollified step, A tanh((x - R) / w) say, is an InitialData sampler.
    A NaN or infinite sample raises ValueError.
    """
    x = grid.x
    if isinstance(q0, StepProfile):
        vals = np.where(x > q0.R, q0.A, np.where(x < q0.R, -q0.A, 0.0)).astype(complex)
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
    dq/dt = -2 i A^2 q, and are reset onto it after every step.

    Each stage is carried scaled, as kt = sigma k / (2i): q^2 conj(q
    reflected) + sigma (q[m+1] - 2q[m] + q[m-1]) / (2 dx^2) inside and
    -sigma A^2 q at the ends.  The factor 2i / sigma rides on the BLAS
    coefficients: the stencil is three ``zaxpy`` calls onto the nonlinear
    term, a stage argument is ``zcopy`` of q plus one ``zaxpy`` (a =
    sigma i dt or sigma 2i dt), kt1 is formed in the accumulator and
    kt2..kt4 are added to it with weights 2, 2, 1, and one ``zaxpy`` of
    weight sigma 2i dt / 6 adds the sum to q.  A fused update rounds
    differently from NumPy's multiply-then-add, so a step agrees with a
    textbook RK4 to rounding, not bit for bit.

    The whole line (sigma = 1) reads the reflection q[N-m].  With
    ``odd=True`` the stepper holds only the half-line [0, L] of an odd
    field (sigma = -1): there conj(q(-x)) = -conj(q(x)), so the nonlinear
    term is -|q|^2 q, whose minus sign sigma carries; q(0) = 0 is pinned
    (its rate -sigma A^2 q(0) vanishes) and x = L keeps the orbit.

    The buffers are allocated once here, so a step allocates no array.
    Every BLAS target is a whole contiguous complex128 buffer (or q,
    which callers own as one): f2py would update a copy of anything
    else and the update would be lost.
    """

    def __init__(self, grid: Grid, cfg: SimConfig, A: float, *, odd: bool = False):
        _check_amplitude(A)
        cfg.check_cfl(grid)
        n = grid.N // 2 + 1 if odd else grid.N + 1
        sigma = -1.0 if odd else 1.0
        self.n = n
        self.odd = odd
        self.reflect = slice(1, -1) if odd else slice(-2, 0, -1)
        self.A = A
        self.dt = cfg.dt
        self.c = sigma * 0.5 / grid.dx**2
        self.minus_a2 = sigma * -A * A
        self.orbit = -2j * A * A
        self.i_dt = sigma * 1j * cfg.dt
        self.two_i_dt = sigma * 2j * cfg.dt
        self.weight = sigma * 2j * cfg.dt / 6.0
        self.kt = np.empty(n, dtype=complex)
        self.acc = np.empty(n, dtype=complex)  # kt1 + 2 kt2 + 2 kt3 + kt4
        self.arg = np.empty(n, dtype=complex)
        self.scratch = np.empty(n - 2, dtype=complex)
        self.bound = _BLOWUP_FACTOR * A
        # |q| <= sqrt(2) max(|Re q|, |Im q|); the margin keeps rounding of
        # the two sides from hiding a peak just past the bound.
        self.re_im_bound = self.bound / math.sqrt(2.0) * (1.0 - 1e-12)

    def _rhs(self, q: np.ndarray, kt: np.ndarray) -> None:
        """kt = q[m]^2 conj(q[N-m]) + sigma (q[m+1] - 2q[m] + q[m-1]) /
        (2 dx^2) inside and -sigma A^2 q at the ends (on the half-line the
        reflection is q[m] itself); the nonlinear term goes first so that
        one scratch array suffices."""
        s, m, c = self.scratch, self.n - 2, self.c
        inner = kt[1:-1]
        np.square(q[1:-1], out=inner)
        np.conjugate(q[self.reflect], out=s)
        np.multiply(inner, s, out=inner)
        # Positional zaxpy(x, y, n, a, offx, incx, offy): kt[1:-1] += a q[offx:offx+m].
        zaxpy(q, kt, m, c, 2, 1, 1)
        zaxpy(q, kt, m, -2.0 * c, 1, 1, 1)
        zaxpy(q, kt, m, c, 0, 1, 1)
        kt[0] = self.minus_a2 * q[0]
        kt[-1] = self.minus_a2 * q[-1]

    def _stage_arg(self, q: np.ndarray, kt: np.ndarray, a: complex) -> np.ndarray:
        """arg = q + a kt, with a = sigma i dt (half step) or sigma 2i dt
        (full step)."""
        zcopy(q, self.arg)
        zaxpy(kt, self.arg, self.n, a)
        return self.arg

    def advance(self, q: np.ndarray, t: float) -> float:
        """Take one step of q (contiguous complex, modified in place) from
        time t and return the new time; raises BlowupDetected past 50A or
        on NaN/inf."""
        n, kt, acc = self.n, self.kt, self.acc
        self._rhs(q, acc)
        self._rhs(self._stage_arg(q, acc, self.i_dt), kt)
        zaxpy(kt, acc, n, 2.0)
        self._rhs(self._stage_arg(q, kt, self.i_dt), kt)
        zaxpy(kt, acc, n, 2.0)
        self._rhs(self._stage_arg(q, kt, self.two_i_dt), kt)
        zaxpy(kt, acc, n, 1.0)
        zaxpy(acc, q, n, self.weight)
        t_new = t + self.dt
        bc = self.A * cmath.exp(self.orbit * t_new)
        q[0] = 0.0 if self.odd else -bc
        q[-1] = bc
        # The stage argument is free once a step is combined; its storage
        # holds |Re q|, |Im q| and, past the cheap screen, |q|.  Written as
        # "not <=" so that a NaN or inf field counts as a blow-up.
        free = self.arg.view(float)
        if not np.abs(q.view(float), out=free).max() <= self.re_im_bound:
            peak = float(np.abs(q, out=free[:n]).max())
            if not peak <= self.bound:
                raise BlowupDetected(
                    f"field reached {peak:.3g} (> {_BLOWUP_FACTOR}A) at t={t_new:.6g}",
                    t=t_new,
                    max_abs=peak,
                )
        return t_new

    def full(self, q: np.ndarray) -> np.ndarray:
        """A new full-grid array of the field q that this stepper holds."""
        if not self.odd:
            return q.copy()
        out = np.empty(2 * self.n - 1, dtype=complex)
        out[self.n - 1 :] = q
        np.negative(q[:0:-1], out=out[: self.n - 1])
        return out


def _is_odd(q: np.ndarray) -> bool:
    """Whether q[N-m] == -q[m] exactly for every m.  The centre is looked
    at first, so that most other data cost O(1); a NaN is never odd."""
    h = q.size // 2
    return bool(q[h] == 0) and np.array_equal(q[:h], -q[:h:-1])


def step(fld: Field, cfg: SimConfig, A: float) -> Field:
    """One classic RK4 step; boundary values are reset to the exact
    Dirichlet orbit afterwards.  Returns a new Field; ``fld`` is unchanged.
    It is the one step of ``evolve`` to t_end = dt (at dt = 0, a copy)."""
    return evolve(fld, replace(cfg, t_end=cfg.dt, record_times=(cfg.dt,)), A)[0]


def evolve(fld: Field, cfg: SimConfig, A: float) -> list[Field]:
    """March to t_end, returning snapshots at the requested record times
    (each rounded to the nearest step).  The field advances in place on a
    private copy; every snapshot owns its array and ``fld`` is unchanged.

    On odd data conj(q(-x)) = -conj(q(x)), so the equation is the local
    defocusing NLS i q_t + q_xx - 2|q|^2 q = 0, which keeps them odd.  A
    field that is exactly odd on the grid (q[N-m] == -q[m] for every m,
    as the centred step is) is therefore stepped on [0, L] alone, with
    q(0) = 0 pinned, and each snapshot is its mirror on the full grid.
    This does half the work and agrees with the whole-line step to
    rounding (about 1e-14 relative), not bit for bit.  Every other field,
    however close to odd, takes the whole-line step."""
    q = np.asarray(fld.values, dtype=complex)
    odd = _is_odd(q)
    stepper = _RK4Stepper(fld.grid, cfg, A, odd=odd)
    q = q[fld.grid.N // 2 :].copy() if odd else q.copy()
    if cfg.dt > 0:
        n_steps = int(round(cfg.t_end / cfg.dt))
        record_steps = sorted({int(round(rt / cfg.dt)) for rt in cfg.record_times})
    else:
        n_steps, record_steps = 0, [0] if cfg.record_times else []
    t = fld.t
    snapshots: list[Field] = []
    if record_steps and record_steps[0] == 0:
        snapshots.append(Field(t, np.array(fld.values, dtype=complex), fld.grid))
        record_steps = record_steps[1:]
    for n in range(1, n_steps + 1):
        t = stepper.advance(q, t)
        if record_steps and n == record_steps[0]:
            snapshots.append(Field(t, stepper.full(q), fld.grid))
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
