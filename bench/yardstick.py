"""Yardsticks: fixed benchmark-owned work timed beside the package's work.

The benchmark shares a small host with other tenants, whose load moves
this machine's speed by tens of percent over seconds to minutes.  A
yardstick is a fixed computation written in the benchmark, with no call
into nnlstep, whose cost profile resembles a workload's: array-bound
NumPy stencils, or small-array NumPy and Python-level quadrature.  It is
timed in slices between the workload's operations, so it sees the same
machine speed they do.  The runner reports each timing scaled by
``ref_s / measured yardstick time``: seconds at the speed the yardstick
had when ``ref_s`` was recorded.  A change to the package moves the
scaled timings as it moves the raw ones, since the yardstick does not
run package code; a change of machine speed moves both the raw timing
and the yardstick and cancels.
"""

from __future__ import annotations

import cmath
import time

import numpy as np
from scipy.integrate import solve_ivp

A = 1.0


def nnls_rhs(q: np.ndarray, dx: float) -> np.ndarray:
    """dq/dt = i q_xx + 2i q^2 conj(q(-x)), central differences inside,
    and the exact Dirichlet orbit dq/dt = -2i A^2 q at the ends."""
    out = np.empty_like(q)
    out[1:-1] = 1j * (q[2:] - 2.0 * q[1:-1] + q[:-2]) / dx**2 + 2j * q[1:-1] ** 2 * np.conj(
        q[::-1][1:-1]
    )
    out[[0, -1]] = -2j * A * A * q[[0, -1]]
    return out


def rk4(q: np.ndarray, dx: float, dt: float, steps: int) -> np.ndarray:
    """``steps`` classic RK4 steps of ``nnls_rhs`` with the boundary orbit reset."""
    t = 0.0
    for _ in range(steps):
        k1 = nnls_rhs(q, dx)
        k2 = nnls_rhs(q + 0.5 * dt * k1, dx)
        k3 = nnls_rhs(q + 0.5 * dt * k2, dx)
        k4 = nnls_rhs(q + dt * k3, dx)
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        bc = A * cmath.exp(-2j * A * A * t)
        q[0], q[-1] = -bc, bc
    return q


def ln_tanh_integral(u1: float, tol: float = 1e-12) -> float:
    """int_{u1}^{u1+18} ln tanh u du by tanh-sinh with level halving."""
    a, b = u1, u1 + 18.0
    half = 0.5 * (b - a)

    def sample(ts):
        u = 0.5 * np.pi * np.sinh(ts)
        e2u = np.exp(-2.0 * np.abs(u))
        delta = half * 2.0 * e2u / (1.0 + e2u)
        x = np.where(ts >= 0, b - delta, a + delta)
        sech = 2.0 * np.exp(-np.abs(u)) / (1.0 + e2u)
        wgt = half * 0.5 * np.pi * np.cosh(ts) * sech**2
        vals = np.log(np.tanh(x)).astype(complex)
        return np.sum(np.where(np.isfinite(vals), vals, 0.0) * wgt)

    h = 1.0
    base = np.arange(1.0, 3.8, 1.0)
    prev = sample(np.concatenate([[0.0], base, -base])) * h
    for level in range(1, 12):
        h *= 0.5
        ts = np.arange(h, 3.8, 2 * h)
        total = 0.5 * prev + sample(np.concatenate([ts, -ts])) * h
        if level >= 3 and abs(total - prev) < tol:
            break
        prev = total
    return total.real


QUAD_U = tuple(np.linspace(0.05, 2.0, 12))
QUAD_REF_S = 0.0025


def quad_unit() -> None:
    """12 small-array tanh-sinh integrals: Python-level and small NumPy work."""
    for u in QUAD_U:
        ln_tanh_integral(u)


# Set-up is almost all the import of NumPy and SciPy, so its yardstick is
# that import, timed in a fresh interpreter of its own.
IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.integrate, scipy.interpolate
print(time.perf_counter() - t0)
"""
IMPORT_REF_S = 0.82


def zs_solve(k: float) -> np.ndarray:
    """Zakharov-Shabat system for q = A on [0, 4], one DOP853 solve."""

    def fun(x, y):
        return [-1j * k * y[0] + A * y[1], -A * y[0] + 1j * k * y[1]]

    sol = solve_ivp(fun, (0.0, 4.0), [1.0 + 0j, 0j], method="DOP853", rtol=1e-10, atol=1e-12)
    return sol.y[:, -1]


class Yardstick:
    """A fixed unit of work, timed each time ``tick`` runs it.

    ``unit`` is a function of no arguments; ``ref_s`` is the time of one
    unit on the reference machine (see NOTES.md).  ``spent`` is the total
    time of all ticks, so a caller can take it out of a wall time.
    """

    def __init__(self, unit, ref_s: float):
        self.unit = unit
        self.ref_s = ref_s
        self.spent = 0.0
        self._times: list[float] = []

    def tick(self) -> float:
        """Run one unit; return the local speed factor ``ref_s / unit time``.

        The unit time is the mean of this tick and the one before it, so
        an operation timed between two ticks is scaled by the speed on
        both sides of it.
        """
        t0 = time.perf_counter()
        self.unit()
        dt = time.perf_counter() - t0
        self.spent += dt
        local = 0.5 * (dt + self._times[-1]) if self._times else dt
        self._times.append(dt)
        return self.ref_s / local

    def take(self) -> float:
        """Speed factor over every tick since the last ``take``; keeps the last tick."""
        factor = self.ref_s * len(self._times) / sum(self._times)
        self._times = self._times[-1:]
        return factor
