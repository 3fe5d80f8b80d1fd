"""Scattering data for step-like initial profiles.

The direct problem maps initial data q0 to the spectral functions
(a1, a2, b), their cut boundary values, the zero coefficient a10 of
a1+ at k = 0, and the norming constants gamma_+/-.  Three sources are
supported:

* closed forms for the pure asymmetric step q0 = -A for x < R, +A for
  x > R (three branches by the sign of R),
* reflectionless one-soliton data,
* numerical Jost-function integration for arbitrary step-like data.

The closed forms and the numerical route are interchangeable on pure
steps, which is the main cross-validation used by the test suite.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .branches import CutSide, background_matrix, f, f_array, h, h_real
from .errors import (
    BranchPointProximity,
    DivisionByZeroSpectral,
    OdeToleranceFailure,
)
from .quadrature import IntegrandSpec, _arg_increment, running_winding


class Source(enum.Enum):
    CLOSED_FORM_STEP = "ClosedFormStep"
    NUMERIC_JOST = "NumericJost"
    REFLECTIONLESS_SOLITON = "ReflectionlessSoliton"


@dataclass(frozen=True)
class StepProfile:
    """Pure step: q0(x) = -A for x < R, +A for x > R."""

    A: float
    R: float

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"amplitude must be positive, got {self.A}")
        if not math.isfinite(self.R):
            raise ValueError(f"step location must be finite, got {self.R}")

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.R, self.A, -self.A).astype(complex)


@dataclass(frozen=True)
class InitialData:
    """Step-like initial datum with exponentially decaying deviation.

    ``sampler`` maps real x to complex q0(x); beyond ``decay_width`` the
    datum must sit within ``tail_tol`` of its limits -A (left) and +A
    (right).
    """

    sampler: Callable[[float], complex]
    decay_width: float
    tail_tol: float = 1e-10

    def __post_init__(self):
        if not self.decay_width > 0:
            raise ValueError("decay_width must be positive")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


@dataclass(frozen=True)
class SpectralData:
    """Scattering data: evaluable spectral functions plus derived constants.

    a1, a2, b are callables (k, side) -> complex with side-consistent
    boundary values on the cut (-A, A).  gamma_plus is the norming
    constant of the k = 0 zero (equal to b_+(0) when b is analytic);
    a10 is the linear coefficient of a1_+ at k = 0.
    """

    A: float
    a1: Callable[[complex, CutSide], complex]
    a2: Callable[[complex, CutSide], complex]
    b: Callable[[complex, CutSide], complex]
    a10: complex
    gamma_plus: complex
    gamma_minus: complex
    source: Source
    step_R: float | None = None


# ---------------------------------------------------------------------------
# closed-form pure step
# ---------------------------------------------------------------------------


def _step_pm(k, fk, hk, A: float, R: float, exp):
    """Pure-step numerators (p, m) over 2 f h: (a1, a2) for R > 0, (a2, a1)
    for R < 0.  exp is cmath.exp for scalars and np.exp for arrays."""
    l1 = 1j * (fk + hk)
    l2 = 1j * (fk - hk)
    p = exp(2 * l1 * R) * (A * A + 1j * k * l2) - exp(2 * l2 * R) * (A * A + 1j * k * l1)
    m = exp(-2 * l2 * R) * (A * A - 1j * k * l1) - exp(-2 * l1 * R) * (A * A - 1j * k * l2)
    return p, m


def _step_abc(k: complex, A: float, R: float, side: CutSide):
    """Closed-form (a1, a2, b) of the pure step, any sign of R."""
    fk = f(k, A, side)
    if R == 0.0:
        return k / fk, k / fk, -1j * A / fk
    k = complex(k)
    if k.real == 0.0 and abs(k.imag) < A:
        # a1, a2, b are even functions of h, hence analytic across the
        # vertical cut of h; pick either square root there.
        hk = cmath.sqrt(k * k + A * A)
    else:
        hk = h(k, A)
    p, m = _step_pm(k, fk, hk, A, R, cmath.exp)
    b = (
        -1j
        * A
        * (cmath.exp(2j * hk * R) * (hk + k) + cmath.exp(-2j * hk * R) * (hk - k))
    )
    den = 2.0 * fk * hk
    if R > 0:
        return p / den, m / den, b / den
    return m / den, p / den, b / den


def _step_a1a2_vec(s: np.ndarray, A: float, R: float) -> np.ndarray:
    """Vectorized a1(s) a2(s) of the pure step on real s off the cut.

    Used by the singular quadratures, where the determinant relation gives
    1 + r1 r2 = 1 / (a1 a2) and millions of evaluations occur.
    """
    s = np.asarray(s, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        fs = f_array(s, A)
        if R == 0.0:
            return s * s / (fs * fs)
        hs = h_real(s.real, A)
        p, m = _step_pm(s, fs, hs, A, R, np.exp)
        return p * m / (2.0 * fs * hs) ** 2


def _fit_small_k(fn, A: float):
    """Least-squares fit c0 + c1 k + c2 k^2 of fn on the upper cut side
    near k = 0; returns (c0, c1, residual)."""
    ks = np.array([-0.04, -0.02, -0.01, 0.01, 0.02, 0.04]) * A
    vals = np.array([fn(k) for k in ks], dtype=complex)
    basis = np.column_stack([np.ones_like(ks), ks, ks**2]).astype(complex)
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    resid = float(np.max(np.abs(basis @ coef - vals)))
    return complex(coef[0]), complex(coef[1]), resid


def step_spectral(profile: StepProfile) -> SpectralData:
    """Closed-form scattering data of the pure step."""
    A, R = profile.A, profile.R

    def a1(k, side=CutSide.OFF):
        return _step_abc(k, A, R, side)[0]

    def a2(k, side=CutSide.OFF):
        return _step_abc(k, A, R, side)[1]

    def b(k, side=CutSide.OFF):
        return _step_abc(k, A, R, side)[2]

    # Boundary values at k = 0 from the explicit k -> 0 limits: the b
    # expression is even in h and tends to -cos(2AR) on the upper side,
    # while a1_+ has a simple zero only for the centered step.
    gamma = complex(-math.cos(2 * A * R))
    if R == 0.0:
        a10 = -1j / A
    else:
        _, a10, _ = _fit_small_k(lambda k: a1(k, CutSide.ABOVE), A)
    return SpectralData(
        A=A,
        a1=a1,
        a2=a2,
        b=b,
        a10=a10,
        gamma_plus=gamma,
        gamma_minus=gamma,
        source=Source.CLOSED_FORM_STEP,
        step_R=R,
    )


def soliton_spectral(A: float, phi0: float) -> SpectralData:
    """Reflectionless one-soliton scattering data."""
    if not A > 0:
        raise ValueError(f"amplitude must be positive, got {A}")

    def a1(k, side=CutSide.OFF):
        fk = f(k, A, side)
        return (k + fk - 1j * A) / (k + fk + 1j * A)

    def a2(k, side=CutSide.OFF):
        return 1.0 / a1(k, side)

    def b(k, side=CutSide.OFF):
        return 0.0 + 0.0j

    gamma = -1j * cmath.exp(1j * phi0)
    return SpectralData(
        A=A,
        a1=a1,
        a2=a2,
        b=b,
        a10=-1j / (2 * A),
        gamma_plus=gamma,
        gamma_minus=gamma,
        source=Source.REFLECTIONLESS_SOLITON,
    )


# ---------------------------------------------------------------------------
# numerical Jost route
# ---------------------------------------------------------------------------

_BRANCH_GUARD = 10.0 * math.sqrt(np.finfo(float).eps)
_ODE_TOL = 1e-10


def _jost_at(data: InitialData, A: float, k: complex, L: float, ode_tol: float, side: CutSide):
    """Integrate the Jost columns to x = 0 and return the four columns
    (Psi1_col1, Psi1_col2, Psi2_col1, Psi2_col2) there.

    The oscillatory factor e^{±ixf} is removed analytically: the first
    columns v = Psi^{[1]} e^{ixf} solve v' = (-ik s3 + U(x) + if) v and the
    second columns u = Psi^{[2]} e^{-ixf} solve the same system with -if,
    so the integrator only tracks slowly varying profiles.
    """
    if abs(k - A) < _BRANCH_GUARD or abs(k + A) < _BRANCH_GUARD:
        raise BranchPointProximity(f"k={k} within {_BRANCH_GUARD} of a branch point")
    fk = f(k, A, side)

    def rhs(sign_f):
        def fun(x, y):
            q = complex(data.sampler(x))
            qm = complex(data.sampler(-x))
            y0, y1 = y[0], y[1]
            d0 = (-1j * k + sign_f * 1j * fk) * y0 + q * y1
            d1 = -np.conj(qm) * y0 + (1j * k + sign_f * 1j * fk) * y1
            return [d0, d1]

        return fun

    E1 = background_matrix(1, k, A, side)
    E2 = background_matrix(2, k, A, side)

    def integrate(y0, x0, x1, sign_f):
        sol = solve_ivp(
            rhs(sign_f),
            (x0, x1),
            np.asarray(y0, dtype=complex),
            method="DOP853",
            rtol=ode_tol,
            atol=ode_tol,
        )
        if not sol.success:
            raise OdeToleranceFailure(
                f"Jost integration failed at k={k}: {sol.message}"
            )
        return sol.y[:, -1]

    v1 = integrate(E1[:, 0], -L, 0.0, +1)
    u1 = integrate(E1[:, 1], -L, 0.0, -1)
    v2 = integrate(E2[:, 0], L, 0.0, +1)
    u2 = integrate(E2[:, 1], L, 0.0, -1)
    return v1, u1, v2, u2


def _det2(c1, c2) -> complex:
    return complex(c1[0] * c2[1] - c1[1] * c2[0])


def jost_spectral(data: InitialData, A: float, k_samples) -> SpectralData:
    """Scattering data by direct integration of the Jost systems.

    The Jost columns are integrated to x = 0 from x = -L and x = L, with
    L = decay_width + 30/A.
    Real off-cut samples are precomputed and bridged by cubic splines;
    any other evaluation point falls back to a fresh (cached) integration.
    """
    L = data.decay_width + 30.0 / A

    cache: dict[tuple[complex, CutSide], tuple[complex, complex, complex]] = {}

    def compute(k: complex, side: CutSide):
        key = (complex(k), side)
        if key not in cache:
            v1, u1, v2, u2 = _jost_at(data, A, k, L, _ODE_TOL, side)
            cache[key] = (_det2(v1, u2), _det2(v2, u1), _det2(v2, v1))
        return cache[key]

    # Precompute the requested samples and build splines on real off-cut
    # segments dense enough to interpolate (>= 4 points).
    k_samples = [complex(k) for k in k_samples]
    splines = []
    real_ks = sorted(
        {k.real for k in k_samples if k.imag == 0.0 and abs(k.real) > A}
    )
    for seg in (
        [k for k in real_ks if k < -A],
        [k for k in real_ks if k > A],
    ):
        if len(seg) >= 4:
            ks = np.array(seg)
            vals = np.array([compute(k, CutSide.OFF) for k in ks], dtype=complex)
            splines.append(
                (
                    ks[0],
                    ks[-1],
                    CubicSpline(ks, vals[:, 0]),
                    CubicSpline(ks, vals[:, 1]),
                    CubicSpline(ks, vals[:, 2]),
                )
            )
    for k in k_samples:
        side = CutSide.OFF
        if k.imag == 0.0 and abs(k.real) < A:
            side = CutSide.ABOVE
        compute(k, side)

    def lookup(k, side, idx):
        k = complex(k)
        if (k, side) in cache:
            return cache[(k, side)][idx]
        if side is CutSide.OFF and k.imag == 0.0:
            for lo, hi, *sp in splines:
                if lo <= k.real <= hi:
                    return complex(sp[idx](k.real))
        return compute(k, side)[idx]

    def a1(k, side=CutSide.OFF):
        return lookup(k, side, 0)

    def a2(k, side=CutSide.OFF):
        return lookup(k, side, 1)

    def b(k, side=CutSide.OFF):
        return lookup(k, side, 2)

    _, a10, _ = _fit_small_k(lambda k: a1(k, CutSide.ABOVE), A)

    # Norming constants from the k = 0 boundary values: for exponentially
    # decaying deviations b extends analytically and gamma_+ = b_+(0),
    # gamma_- = -conj(b_-(0)). At k = 0 the Jost systems have a real
    # exponential dichotomy with rate 2A, so truncation/rounding noise is
    # amplified by e^{2 A L_gamma}; integrate only just past the support
    # of the deviation to keep that factor benign.
    L_gamma = data.decay_width + 2.0 / A
    v1, u1, v2, u2 = _jost_at(data, A, 0.0, L_gamma, _ODE_TOL, CutSide.ABOVE)
    gamma_plus = _det2(v2, v1)
    v1m, u1m, v2m, u2m = _jost_at(data, A, 0.0, L_gamma, _ODE_TOL, CutSide.BELOW)
    gamma_minus = -np.conj(_det2(v2m, v1m))

    return SpectralData(
        A=A,
        a1=a1,
        a2=a2,
        b=b,
        a10=a10,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        source=Source.NUMERIC_JOST,
    )


# ---------------------------------------------------------------------------
# reflection coefficients and assumption checks
# ---------------------------------------------------------------------------

_ZERO_A_TOL = 1e-12

# Samples of every running_winding pass along the ray s < -A.
RAY_SAMPLES = 600


def ray_decay(A: float) -> float:
    """Decay scale of the integrands and winding paths on the ray s < -A."""
    return max(1.0, 2.0 * A)


def reflection(sd: SpectralData, k: complex, side: CutSide = CutSide.OFF):
    """Reflection coefficients (r1, r2) = (b/a1, conj(b(-k))/a2).

    On the cut the second coefficient uses the side-consistent identity
    r2_+- = -b_+- / a2_+-; off the cut (real k, or a band for analytic b)
    the Schwarz-reflected form conj(b(-conj(k))) is used.
    """
    k = complex(k)
    a1v = sd.a1(k, side)
    if abs(a1v) < _ZERO_A_TOL:
        raise DivisionByZeroSpectral(f"a1 vanishes at k={k}")
    a2v = sd.a2(k, side)
    if abs(a2v) < _ZERO_A_TOL:
        raise DivisionByZeroSpectral(f"a2 vanishes at k={k}")
    r1 = sd.b(k, side) / a1v
    if side is CutSide.OFF:
        r2 = np.conj(sd.b(-np.conj(k), side)) / a2v
    else:
        r2 = -sd.b(k, side) / a2v
    return complex(r1), complex(r2)


def one_plus_r1r2(sd: SpectralData, k: float, side: CutSide = CutSide.OFF) -> complex:
    r1, r2 = reflection(sd, k, side)
    return 1.0 + r1 * r2


def one_plus_r1r2_ray(sd: SpectralData) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized 1 + r1(s) r2(s) on real s off the cut.

    Uses the determinant relation a1 a2 + b(s) conj(b(-s)) = 1, which turns
    the product into 1 / (a1 a2) and avoids evaluating b.
    """
    if sd.source is Source.REFLECTIONLESS_SOLITON:
        return lambda s: np.ones(np.shape(s), dtype=complex)
    if sd.source is Source.CLOSED_FORM_STEP and sd.step_R is not None:
        A, R = sd.A, sd.step_R
        return lambda s: 1.0 / _step_a1a2_vec(np.asarray(s, dtype=float), A, R)

    def generic(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.array(
            [1.0 / (sd.a1(x, CutSide.OFF) * sd.a2(x, CutSide.OFF)) for x in s],
            dtype=complex,
        )

    return generic


def endpoint_zero(sd: SpectralData) -> tuple[bool, complex]:
    """Whether 1 + r1 r2 vanishes at k = -A, with the probe value.

    The probe sits at -A(1 + 1e-8) and counts as zero below 1e-6 times the
    modulus at the reference point -2A.
    """
    A = sd.A
    g = one_plus_r1r2_ray(sd)
    probe = complex(g(np.array([-A * (1.0 + 1e-8)]))[0])
    ref = complex(g(np.array([-2.0 * A]))[0])
    return abs(probe) < 1e-6 * max(abs(ref), 1e-300), probe


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the sampled checks behind the asymptotic theorems."""

    a1_winding: int | None
    a1_winding_raw: float | None
    a10: complex
    a10_fit_residual: float
    a1_plus_at_zero: complex
    simple_zero_at_origin: bool
    re_a10_small: bool
    winding_bound_ok: bool
    winding_sup: float
    endpoint_zero_at_minus_A: bool
    endpoint_value: complex
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        winding_ok = self.a1_winding in (0, None)
        return (
            winding_ok
            and self.simple_zero_at_origin
            and self.re_a10_small
            and self.winding_bound_ok
        )


def _closed_contour_winding(fn, A: float) -> float:
    """Total argument increment of fn along a closed rectangle in the upper
    half plane enclosing the zero-free region claimed by the assumptions.
    Sample steps that turn by pi/2 or more are bisected, as on the ray."""
    eps = 0.02 * A
    big = 12.0 * A
    top = 8.0 * A
    corners = [
        -big + 1j * eps,
        big + 1j * eps,
        big + 1j * top,
        -big + 1j * top,
        -big + 1j * eps,
    ]
    s = np.linspace(0.0, 1.0, 500, endpoint=False)
    pts = []
    for z0, z1 in zip(corners[:-1], corners[1:]):
        pts.extend(z0 + (z1 - z0) * s)
    pts.append(corners[-1])
    vals = [fn(z) for z in pts]
    total = 0.0
    for z0, z1, v0, v1 in zip(pts[:-1], pts[1:], vals[:-1], vals[1:]):
        segment = lambda u, z0=z0, dz=z1 - z0: np.array([fn(z0 + dz * x) for x in u])
        total += _arg_increment(segment, 0.0, 1.0, v0, v1)
    return total


def check_assumptions(sd: SpectralData) -> AssumptionReport:
    """Sampled verification of the structural hypotheses used downstream.

    Reports (i) the argument-principle winding of a1 over an upper-half-
    plane contour (analytic sources only), (ii) the simple zero of a1_+ at
    the origin with purely imaginary linear coefficient, (iii) the running
    winding of arg(1 + r1 r2) on (-inf, -A) staying inside (-pi, pi), and
    (iv) whether 1 + r1 r2 vanishes at k = -A.  Both read 1 + r1 r2 from
    one_plus_r1r2_ray, the form delta and F_inf integrate.
    """
    A = sd.A
    notes = []

    if sd.source is Source.NUMERIC_JOST:
        # Each contour point would need a fresh ODE solve and the result
        # would still be a sampled heuristic; skipped for numeric data.
        a1_winding_raw = None
        a1_winding = None
        notes.append("a1 contour winding skipped for numeric Jost data")
    else:
        a1_winding_raw = _closed_contour_winding(lambda z: sd.a1(z, CutSide.OFF), A)
        a1_winding = int(round(a1_winding_raw / (2 * np.pi)))

    a1_zero, a10_fit, resid = _fit_small_k(lambda k: sd.a1(k, CutSide.ABOVE), A)
    scale = max(abs(sd.a1(0.04 * A, CutSide.ABOVE)), 1e-300)
    simple_zero = abs(a1_zero) < 1e-6 * scale
    re_small = abs(a10_fit.real) <= 1e-6 * max(abs(a10_fit), 1e-300)

    if sd.source is Source.REFLECTIONLESS_SOLITON:
        notes.append("reflectionless data: 1 + r1 r2 = 1 identically")
    path = IntegrandSpec(eval=one_plus_r1r2_ray(sd), decay_estimate=ray_decay(A))
    _, cum = running_winding(path, -A * (1.0 + 1e-6), samples=RAY_SAMPLES)
    winding_sup = float(np.max(np.abs(cum)))
    at_minus_A, endpoint_val = endpoint_zero(sd)

    return AssumptionReport(
        a1_winding=a1_winding,
        a1_winding_raw=a1_winding_raw,
        a10=a10_fit if sd.source is Source.NUMERIC_JOST else sd.a10,
        a10_fit_residual=resid,
        a1_plus_at_zero=a1_zero,
        simple_zero_at_origin=simple_zero,
        re_a10_small=re_small,
        winding_bound_ok=winding_sup < np.pi,
        winding_sup=winding_sup,
        endpoint_zero_at_minus_A=at_minus_A,
        endpoint_value=endpoint_val,
        notes=tuple(notes),
    )
