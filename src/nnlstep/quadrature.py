"""Singular-integral primitives for the Riemann-Hilbert machinery.

Two building blocks are provided:

* semi-infinite integrals int_{-inf}^{upper} g(z) dz and their Cauchy-type
  variant int_{-inf}^{upper} g(z)/(z-pole) dz with decaying integrands
  (plus a principal-value variant for poles on the contour interior),
* continuously-unwound argument increments (winding) along a real ray.

Endpoint singularities (log or algebraic-integrable) are handled by
tanh-sinh quadrature on the singular cell; smooth cells use the same rule,
which converges at machine precision for analytic integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InconclusiveWinding, PoleOnContour, ToleranceNotMet

DEFAULT_TOL = 1e-8
_POLE_GUARD = 1e-8
_MAX_CELLS = 64


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand together with the metadata quadrature needs.

    ``eval`` must accept a real numpy array and return a complex array.
    ``decay_estimate`` is the scale beyond which the tail is negligible
    (exponential or algebraic).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    decay_estimate: float = 1.0


def tanh_sinh(fn, a: float, b: float, tol: float = DEFAULT_TOL, max_level: int = 14):
    """Tanh-sinh quadrature of a vectorized fn over [a, b].

    Returns (value, error_estimate). Integrable endpoint singularities are
    fine: nodes approach the endpoints double-exponentially and non-finite
    samples (which can only occur within rounding distance of an endpoint)
    are dropped.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    t_max = 3.8

    def _sample(ts):
        u = 0.5 * np.pi * np.sinh(ts)
        # Distance to the nearer endpoint, computed cancellation-free:
        # 1 - tanh|u| = 2 e^{-2|u|} / (1 + e^{-2|u|}) keeps full relative
        # precision where mid + half*tanh(u) would lose all digits.
        e2u = np.exp(-2.0 * np.abs(u))
        delta = half * 2.0 * e2u / (1.0 + e2u)
        x = np.where(ts >= 0, b - delta, a + delta)
        sech = 2.0 * np.exp(-np.abs(u)) / (1.0 + e2u)
        wgt = half * 0.5 * np.pi * np.cosh(ts) * sech**2
        keep = (x > a) & (x < b) & (wgt > 0)
        vals = np.asarray(fn(x[keep]), dtype=complex)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return np.sum(vals * wgt[keep])

    h = 1.0
    base = np.arange(1.0, t_max, 1.0)
    total = _sample(np.concatenate([[0.0], base, -base])) * h
    prev = total
    err = np.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        ts = np.arange(h, t_max, 2 * h)  # odd multiples of the new h
        ts = np.concatenate([ts, -ts])
        total = 0.5 * prev + _sample(ts) * h
        err = abs(total - prev)
        if level >= 3 and err < tol:
            return total, err
        prev = total
    if err < 10 * tol:
        return total, err
    raise ToleranceNotMet(
        f"tanh-sinh failed to reach tol={tol} on [{a}, {b}] (err~{err:.3g})",
        best=total,
        error=err,
    )


def _ray_cells(
    g: IntegrandSpec, upper: float, tol: float, pole: complex | None = None
) -> complex:
    """int_{-inf}^{upper} g(z) dz, or of g(z)/(z - pole) when a pole is given.

    Walks geometric cells of (-inf, upper], widest cells last, and stops
    once a cell contributes below tol/10 beyond ten decay scales.
    """
    if pole is None:
        integrand = g.eval
    else:

        def integrand(z):
            return np.asarray(g.eval(z), dtype=complex) / (z - pole)

    total = 0.0 + 0.0j
    err = 0.0
    decay = max(g.decay_estimate, 1e-12)
    right = upper
    width = 1.0
    for _ in range(_MAX_CELLS):
        left = right - width
        pieces = [(left, right)]
        # Split at the pole's real part so tanh-sinh clusters nodes where
        # the kernel nearly blows up.
        if pole is not None and left < pole.real < right and abs(pole.imag) < (right - left):
            pieces = [(left, pole.real), (pole.real, right)]
        cell = 0.0 + 0.0j
        for lo, hi in pieces:
            v, e = tanh_sinh(integrand, lo, hi, tol=tol / 10.0)
            cell += v
            err += e
        total += cell
        if (upper - left) > 10.0 * decay and abs(cell) < tol / 10.0:
            return total
        right = left
        width *= 2.0
    raise ToleranceNotMet(
        f"semi-infinite integral did not converge (tol={tol})", best=total, error=err
    )


def cauchy_semiinfinite(
    g: IntegrandSpec, upper: float, pole: complex, tol: float = DEFAULT_TOL
) -> complex:
    """int_{-inf}^{upper} g(z)/(z - pole) dz for a pole off the contour."""
    pole = complex(pole)
    if (abs(pole.imag) if pole.real <= upper else abs(pole - upper)) < _POLE_GUARD:
        raise PoleOnContour(f"pole {pole} within guard distance of (-inf, {upper}]")
    return _ray_cells(g, upper, tol, pole)


def semiinfinite_integral(g: IntegrandSpec, upper: float, tol: float = DEFAULT_TOL) -> complex:
    """Plain int_{-inf}^{upper} g(z) dz for a decaying integrand; integrable
    singularities at the upper endpoint are allowed (tanh-sinh cells)."""
    return _ray_cells(g, upper, tol)


def cauchy_semiinfinite_pv(
    g: IntegrandSpec, upper: float, x0: float, tol: float = DEFAULT_TOL
) -> complex:
    """Principal value of int_{-inf}^{upper} g(z)/(z - x0) dz, x0 interior.

    The symmetric cell [x0-c, x0+c] is regularized by subtracting g(x0)
    (whose PV contribution over a symmetric cell vanishes); the remaining
    pieces are pole-free.
    """
    x0 = float(x0)
    if not x0 < upper - _POLE_GUARD:
        raise PoleOnContour(f"PV point x0={x0} must lie strictly inside (-inf, {upper})")
    c = min(1.0, 0.5 * (upper - x0))
    g0 = complex(np.asarray(g.eval(np.array([x0])), dtype=complex)[0])

    def regularized(z):
        return (np.asarray(g.eval(z), dtype=complex) - g0) / (z - x0)

    v1, _ = tanh_sinh(regularized, x0 - c, x0, tol=tol / 4.0)
    v2, _ = tanh_sinh(regularized, x0, x0 + c, tol=tol / 4.0)

    def plain(z):
        return np.asarray(g.eval(z), dtype=complex) / (z - x0)

    v3, _ = tanh_sinh(plain, x0 + c, upper, tol=tol / 4.0)

    v4 = cauchy_semiinfinite(g, x0 - c, x0, tol=tol / 4.0)
    return v1 + v2 + v3 + v4


def _arg_increment(path, lo, hi, v_lo, v_hi, depth=0, max_depth=40):
    """Unwound argument increment of path() from lo to hi, refining where
    adjacent samples jump by pi/2 or more."""
    d = np.angle(v_hi / v_lo)
    if abs(d) < 0.5 * np.pi:
        return d
    if depth >= max_depth or (hi - lo) < 1e-13 * max(1.0, abs(hi), abs(lo)):
        raise InconclusiveWinding(
            f"argument jump {d:.3f} >= pi/2 between {lo} and {hi} at max refinement"
        )
    mid = 0.5 * (lo + hi)
    v_mid = complex(np.asarray(path(np.array([mid])), dtype=complex)[0])
    return _arg_increment(path, lo, mid, v_lo, v_mid, depth + 1, max_depth) + _arg_increment(
        path, mid, hi, v_mid, v_hi, depth + 1, max_depth
    )


def running_winding(gamma: IntegrandSpec, k_end: float, samples: int = 400):
    """Cumulative unwound arg of the path gamma over (-inf, k_end].

    Returns (grid, cumulative) where cumulative[i] is the total argument
    increment from -inf to grid[i]; the path is assumed to approach a
    positive real limit at -inf (it is normalized so that arg -> 0 there).
    """
    T = max(10.0 * gamma.decay_estimate, 10.0)
    # Confirm the tail is argument-quiet; extend if not.
    for _ in range(20):
        probe = np.asarray(gamma.eval(np.array([k_end - 4 * T, k_end - T])), dtype=complex)
        if abs(np.angle(probe[1] / probe[0])) < 1e-9 and abs(np.angle(probe[0])) < 0.1:
            break
        T *= 4.0
    else:
        raise InconclusiveWinding("path argument does not settle toward -inf")

    v = np.linspace(1.0, 0.0, samples)
    grid = k_end - T * v**2  # dense near k_end
    vals = np.asarray(gamma.eval(grid), dtype=complex)
    cum = np.empty(samples)
    cum[0] = np.angle(vals[0])  # small by the tail check above
    for i in range(samples - 1):
        cum[i + 1] = cum[i] + _arg_increment(
            gamma.eval, grid[i], grid[i + 1], vals[i], vals[i + 1]
        )
    return grid, cum
