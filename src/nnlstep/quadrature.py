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

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InconclusiveWinding, PoleOnContour, ToleranceNotMet

DEFAULT_TOL = 1e-8
_POLE_GUARD = 1e-8
_MAX_CELLS = 64
_T_MAX = 3.8  # tanh-sinh nodes span t in (-_T_MAX, _T_MAX)
# Blocks (lo, hi) of the rungs T0 4^i, lo <= i <= hi, of the winding tail
# probe, one integrand call each.  Pair i is (rung i + 1, rung i), so a
# block shares its last rung with the next and the 20 pairs end at rung 20.
_PROBE_BLOCKS = ((0, 8), (8, 16), (16, 20))
_WINDING_SAMPLES = 600  # points of every running_winding grid
# v^2 for v from 1 to 0: a grid k_end - T v^2 is dense near k_end.
_WINDING_V2 = np.linspace(1.0, 0.0, _WINDING_SAMPLES) ** 2
_WINDING_V2.flags.writeable = False
_ARG_DEPTH = 40  # bisections of one unwound step before InconclusiveWinding
_MAX_LEVEL = 14  # the last tanh-sinh level before ToleranceNotMet
# The ray walker hands a tanh-sinh level longer than this to its integrand
# in consecutive blocks, whose temporaries stay in cache.
_WALK_BLOCK = 4096


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand together with the metadata quadrature needs.

    ``eval`` must accept a real numpy array and return a complex array.
    ``decay_estimate`` is the scale beyond which the tail is negligible
    (exponential or algebraic).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    decay_estimate: float = 1.0


@functools.cache
def _unit_level(level: int) -> tuple[np.ndarray, ...]:
    """Unit data of one tanh-sinh level, built on first use: the node side
    (t >= 0), e^{-2|u|}, 1 + e^{-2|u|}, cosh t and sech^2 u at
    u = pi/2 sinh t, for t in {0, +-1, +-2, +-3} at level 0 and the odd
    multiples of 2^-level below _T_MAX after it."""
    if level == 0:
        base = np.arange(1.0, _T_MAX, 1.0)
        ts = np.concatenate([[0.0], base, -base])
    else:
        h = 0.5**level
        ts = np.arange(h, _T_MAX, 2 * h)
        ts = np.concatenate([ts, -ts])
    u = 0.5 * np.pi * np.sinh(ts)
    e2u = np.exp(-2.0 * np.abs(u))
    one_plus = 1.0 + e2u
    sech = 2.0 * np.exp(-np.abs(u)) / one_plus
    data = (ts >= 0, e2u, one_plus, np.cosh(ts), sech**2)
    for arr in data:
        arr.flags.writeable = False
    return data


def tanh_sinh(fn, a: float, b: float, tol: float = DEFAULT_TOL):
    """Tanh-sinh quadrature of a vectorized fn over [a, b].

    Returns (value, error_estimate). Integrable endpoint singularities are
    fine: nodes approach the endpoints double-exponentially and non-finite
    samples (which can only occur within rounding distance of an endpoint)
    are dropped.  The nodes and weights of each level are mapped to [a, b]
    from the cached unit data of _unit_level.  The stop rule cannot fire
    before level 3, so levels 0 to 3 are sampled in one call of fn and
    every later level, up to _MAX_LEVEL, in one call each; each level's sum
    runs over its own nodes only, so the result does not depend on the
    batching.
    """
    half = 0.5 * (b - a)

    def _terms(right, e2u, one_plus, cosh_t, sech2):
        # Distance to the nearer endpoint, computed cancellation-free:
        # 1 - tanh|u| = 2 e^{-2|u|} / (1 + e^{-2|u|}) keeps full relative
        # precision where mid + half*tanh(u) would lose all digits.
        delta = half * 2.0 * e2u / one_plus
        x = np.where(right, b - delta, a + delta)
        wgt = half * 0.5 * np.pi * cosh_t * sech2
        keep = (x > a) & (x < b)
        vals = np.asarray(fn(x[keep]), dtype=complex)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return keep, vals * wgt[keep]

    # Each level is summed over its own slice of the kept terms: summing
    # with the dropped nodes zero-filled, or np.add.reduceat, would change
    # the last bit.
    head = [_unit_level(level) for level in range(4)]
    keep, terms = _terms(*map(np.concatenate, zip(*head)))
    ends = np.cumsum(keep)[np.cumsum([unit[0].size for unit in head]) - 1]
    sums = [np.sum(terms[lo:hi]) for lo, hi in zip([0, *ends[:-1]], ends)]

    h = 1.0
    total = prev = sums[0]
    err = np.inf
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        sample = sums[level] if level <= 3 else np.sum(_terms(*_unit_level(level))[1])
        total = 0.5 * prev + sample * h
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
    once a cell contributes below tol/10 beyond ten decay scales.  A level
    longer than _WALK_BLOCK nodes is evaluated in consecutive blocks of
    that many; the integrand is elementwise, so the values do not depend
    on the blocking.
    """
    if pole is None:
        point = g.eval
    else:

        def point(z):
            return np.asarray(g.eval(z), dtype=complex) / (z - pole)

    def integrand(z):
        block = _WALK_BLOCK
        if z.size <= block:
            return point(z)
        return np.concatenate([point(z[i:i + block]) for i in range(0, z.size, block)])

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

    g(x0) / (1 + (z - x0)^2)^2 is subtracted, so the remainder over z - x0
    is finite at x0 and one cell walk split at x0 takes it.  The subtracted
    term adds its closed form: with u = upper - x0,
    PV int_{-inf}^{u} dw / (w (1 + w^2)^2) = ln u - ln(1 + u^2)/2 + 1/(2(1 + u^2)).
    """
    x0 = float(x0)
    if not x0 < upper - _POLE_GUARD:
        raise PoleOnContour(f"PV point x0={x0} must lie strictly inside (-inf, {upper})")
    g0 = complex(np.asarray(g.eval(np.array([x0])), dtype=complex)[0])

    def remainder(z):
        return np.asarray(g.eval(z), dtype=complex) - g0 / (1.0 + (z - x0) ** 2) ** 2

    u2 = (upper - x0) ** 2
    pv = -0.5 * np.log1p(1.0 / u2) + 0.5 / (1.0 + u2)  # ln u - ln(1 + u^2)/2 = -ln(1 + 1/u^2)/2
    return _ray_cells(IntegrandSpec(remainder, g.decay_estimate), upper, tol, x0) + g0 * pv


def _arg_increment(path, lo, hi, v_lo, v_hi, depth=0):
    """Unwound argument increment of path() from lo to hi, real or complex,
    refining where adjacent samples jump by pi/2 or more."""
    d = np.angle(v_hi / v_lo)
    if abs(d) < 0.5 * np.pi:
        return d
    if depth >= _ARG_DEPTH or abs(hi - lo) < 1e-13 * max(1.0, abs(hi), abs(lo)):
        raise InconclusiveWinding(
            f"argument jump {d:.3f} >= pi/2 between {lo} and {hi} at max refinement"
        )
    mid = 0.5 * (lo + hi)
    v_mid = complex(np.asarray(path(np.array([mid])), dtype=complex)[0])
    if not np.isfinite(v_mid):
        raise InconclusiveWinding(f"non-finite path sample at {mid}")
    return _arg_increment(path, lo, mid, v_lo, v_mid, depth + 1) + _arg_increment(
        path, mid, hi, v_mid, v_hi, depth + 1
    )


def unwound_steps(path, nodes: np.ndarray, vals: np.ndarray | None = None):
    """(vals, steps): path at the real or complex nodes, unless its samples
    vals are given, and the angles of neighbouring ratios, bisecting steps
    that turn by pi/2 or more.  A non-finite sample, whose NaN would pass
    that test, raises.  np.arctan2 of the parts is np.angle without its
    Python wrapper."""
    if vals is None:
        vals = np.asarray(path(nodes), dtype=complex)
    if not np.isfinite(vals).all():
        raise InconclusiveWinding(f"non-finite path sample at {nodes[~np.isfinite(vals)][0]}")
    ratio = vals[1:] / vals[:-1]
    d = np.arctan2(ratio.imag, ratio.real)
    for i in (np.abs(d) >= 0.5 * np.pi).nonzero()[0]:
        d[i] = _arg_increment(path, nodes[i], nodes[i + 1], vals[i], vals[i + 1])
    return vals, d


def running_winding(gamma: IntegrandSpec, k_end: float, extra: np.ndarray | None = None):
    """Cumulative unwound arg of the path gamma over (-inf, k_end].

    Returns (grid, cumulative) where cumulative[i] is the total argument
    increment from -inf to grid[i]; the path is assumed to approach a
    positive real limit at -inf (it is normalized so that arg -> 0 there).
    The grid spans [k_end - T, k_end] for the first rung T = T0 4^i of the
    tail probe whose pair (k_end - 4T, k_end - T) is argument-quiet.  The
    pairs share their points, so the probe evaluates the ladder in blocks
    of rungs (_PROBE_BLOCKS), one call each, and stops at the first block
    holding a quiet pair: no probe point lies beyond 4^8 T.  One
    unwound_steps pass then unwinds the samples; cumsum sums the steps in
    order.  Given extra points, the grid's call of gamma evaluates them
    too, outside the unwinding, and their values come third in the result.
    """
    T0 = max(10.0 * gamma.decay_estimate, 10.0)
    bad = None  # the first non-finite probe point
    for lo, hi in _PROBE_BLOCKS:
        rungs = T0 * 4.0 ** np.arange(lo, hi + 1)
        s = k_end - rungs
        probe = np.asarray(gamma.eval(s), dtype=complex)
        # Pair i is (probe[i + 1], probe[i]), far point first.
        with np.errstate(all="ignore"):
            ratio = probe[:-1] / probe[1:]
        far = probe[1:]
        quiet = (np.abs(np.arctan2(ratio.imag, ratio.real)) < 1e-9) & (
            np.abs(np.arctan2(far.imag, far.real)) < 0.1
        )
        if quiet.any():
            T = float(rungs[quiet.argmax()])
            break
        if bad is None and not np.isfinite(probe).all():
            bad = s[~np.isfinite(probe)][0]
    else:
        why = "" if bad is None else f": non-finite path sample at {bad}"
        raise InconclusiveWinding(f"path argument does not settle toward -inf{why}")

    grid = k_end - T * _WINDING_V2
    nodes = grid if extra is None else np.concatenate([grid, extra])
    vals = np.asarray(gamma.eval(nodes), dtype=complex)
    _, d = unwound_steps(gamma.eval, grid, vals[:grid.size])
    # arg(vals[0]) is small by the tail check above.
    cum = np.cumsum(np.concatenate([[np.arctan2(vals[0].imag, vals[0].real)], d]))
    return (grid, cum) if extra is None else (grid, cum, vals[grid.size:])
