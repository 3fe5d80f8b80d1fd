"""Scattering data for step-like initial profiles.

The direct problem maps initial data q0 to the spectral functions
(a1, a2, b), their cut boundary values, the zero coefficient a10 of
a1+ at k = 0, and the norming constants gamma_+/-.  Each source is one
vector evaluator abc(k, side) of (a1, a2, b) on an array of k:

* closed forms for the pure asymmetric step q0 = -A for x < R, +A for
  x > R (three branches by the sign of R),
* reflectionless one-soliton data,
* the Jost solutions of a sampled step-like datum: exact background
  solutions outside the deviation's support and a 4th-order Magnus
  transfer matrix across it, on a cell grid built from the sampler (an
  ODE solver only for the norming constants at k = 0).

A source may also give a faster product a1 a2 on the ray s < -A, which
the quadratures of the asymptotic layer evaluate.  The closed forms and
the numerical route are interchangeable on pure steps, which is the main
cross-validation used by the test suite.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .branches import CutSide, background_matrix, f, fw_array, h_array
from .errors import DivisionByZeroSpectral, OdeToleranceFailure
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
    datum must equal its limits -A (left) and +A (right).
    """

    sampler: Callable[[float], complex]
    decay_width: float

    def __post_init__(self):
        if not self.decay_width > 0:
            raise ValueError("decay_width must be positive")


def _tabulate(memo: dict, abc: Callable, ks, side: CutSide) -> list[tuple[complex, ...]]:
    """(a1, a2, b) at each k from memo; the points it lacks are evaluated
    in one abc call and kept there."""
    keys = [(complex(k), side) for k in ks]
    new = [key for key in keys if key not in memo]
    if new:
        vals = abc(np.array([k for k, _ in new]), side)
        memo.update(zip(new, zip(*(v.tolist() for v in vals))))
    return [memo[key] for key in keys]


@dataclass(frozen=True)
class SpectralData:
    """Scattering data: one vector evaluator plus derived constants.

    abc(k, side) gives the arrays (a1, a2, b) on an array of complex k,
    all off the cut (-A, A) with side OFF or all on it with the side of
    the boundary value.  The methods a1, a2 and b are its scalar values,
    and ``at`` its values at a list of k; both memoise per object.
    gamma_plus is the norming constant of the k = 0 zero (equal to
    b_+(0) when b is analytic), nan when the Jost route cannot resolve
    it; a10 is the linear coefficient of a1_+ at k = 0.  a1a2_ray(s,
    sp=None), when given, is a faster a1(s) a2(s) elementwise on the
    ray s < -A; sp, when given, is the exact s + A
    (see branches.f_array), so that nodes next to -A keep their distance.
    """

    A: float
    abc: Callable[[np.ndarray, CutSide], tuple[np.ndarray, np.ndarray, np.ndarray]]
    a10: complex
    gamma_plus: complex
    gamma_minus: complex
    source: Source
    a1a2_ray: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    def at(self, ks, side: CutSide = CutSide.OFF) -> list[tuple[complex, ...]]:
        return _tabulate(self._memo, self.abc, ks, side)

    def a1(self, k: complex, side: CutSide = CutSide.OFF) -> complex:
        return self.at([k], side)[0][0]

    def a2(self, k: complex, side: CutSide = CutSide.OFF) -> complex:
        return self.at([k], side)[0][1]

    def b(self, k: complex, side: CutSide = CutSide.OFF) -> complex:
        return self.at([k], side)[0][2]


# ---------------------------------------------------------------------------
# closed-form pure step
# ---------------------------------------------------------------------------


def _step_pm(k, fk, hk, A: float, R: float):
    """Pure-step numerators (p, m) over 2 f h: (a1, a2) for R > 0, (a2, a1)
    for R < 0."""
    l1 = 1j * (fk + hk)
    l2 = 1j * (fk - hk)
    p = np.exp(2 * l1 * R) * (A * A + 1j * k * l2) - np.exp(2 * l2 * R) * (A * A + 1j * k * l1)
    m = np.exp(-2 * l2 * R) * (A * A - 1j * k * l1) - np.exp(-2 * l1 * R) * (A * A - 1j * k * l2)
    return p, m


def _step_a1a2_vec(s: np.ndarray, A: float, R: float, sp=None) -> np.ndarray:
    """Vectorized a1(s) a2(s) of the pure step on the ray s < -A, with
    f formed from sp = s + A when given.

    Used by the singular quadratures, where the determinant relation gives
    1 + r1 r2 = 1 / (a1 a2) and millions of evaluations occur.  On the ray
    f = -sqrt(A - s) sqrt(-sp), h = -sqrt(s^2 + A^2), alpha = f + h and
    beta = f - h are real, and with P1 = A^2 - s beta, P2 = A^2 - s alpha,
    M1 = A^2 + s alpha, M2 = A^2 + s beta the product of _step_pm's p and m
    is P1 M1 e^{4ihR} + P2 M2 e^{-4ihR} - (P1 M2 + P2 M1): one real phase
    in place of four complex exponentials.
    """
    s = np.asarray(s, dtype=float)
    sp = s + A if sp is None else np.asarray(sp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ff = (A - s) * -sp  # f^2
        if R == 0.0:
            return (s * s / ff).astype(complex)
        hh = s * s + A * A  # h^2
        f = -np.sqrt(A - s) * np.sqrt(-sp)
        h = -np.sqrt(hh)
        sa, sb = s * (f + h), s * (f - h)
        P1, P2, M1, M2 = A * A - sb, A * A - sa, A * A + sa, A * A + sb
        P1M1, P2M2 = P1 * M1, P2 * M2
        phase = 4.0 * R * h
        scale = 0.25 / (ff * hh)  # 1 / (2 f h)^2
        out = np.empty(s.shape, dtype=complex)
        out.real = ((P1M1 + P2M2) * np.cos(phase) - (P1 * M2 + P2 * M1)) * scale
        out.imag = (P1M1 - P2M2) * np.sin(phase) * scale
        return out


_FIT_KS = np.array([-0.04, -0.02, -0.01, 0.01, 0.02, 0.04])


def _fit_small_k(a1_above: np.ndarray, A: float):
    """Least-squares fit c0 + c1 k + c2 k^2 of a1_+ given at the points
    _FIT_KS * A; returns (c0, c1, residual)."""
    ks = _FIT_KS * A
    vals = np.asarray(a1_above, dtype=complex)
    basis = np.column_stack([np.ones_like(ks), ks, ks**2]).astype(complex)
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    resid = float(np.max(np.abs(basis @ coef - vals)))
    return complex(coef[0]), complex(coef[1]), resid


def step_spectral(profile: StepProfile) -> SpectralData:
    """Closed-form scattering data of the pure step."""
    A, R = profile.A, profile.R

    def abc(k, side=CutSide.OFF):
        fk, _ = fw_array(k, A, side)
        if R == 0.0:
            return k / fk, k / fk, -1j * A / fk
        # a1, a2, b are even functions of h, hence analytic across the
        # vertical cut of h, where h_array picks one square root.
        hk = h_array(k, A)
        p, m = _step_pm(k, fk, hk, A, R)
        b = -1j * A * (np.exp(2j * hk * R) * (hk + k) + np.exp(-2j * hk * R) * (hk - k))
        den = 2.0 * fk * hk
        if R > 0:
            return p / den, m / den, b / den
        return m / den, p / den, b / den

    # Boundary values at k = 0 from the explicit k -> 0 limits: the b
    # expression is even in h and tends to -cos(2AR) on the upper side,
    # while a1_+ has a simple zero only for the centered step.
    gamma = complex(-math.cos(2 * A * R))
    if R == 0.0:
        a10 = -1j / A
    else:
        _, a10, _ = _fit_small_k(abc(_FIT_KS * A, CutSide.ABOVE)[0], A)
    return SpectralData(
        A=A,
        abc=abc,
        a10=a10,
        gamma_plus=gamma,
        gamma_minus=gamma,
        source=Source.CLOSED_FORM_STEP,
        a1a2_ray=lambda s, sp=None: _step_a1a2_vec(s, A, R, sp),
    )


def soliton_spectral(A: float, phi0: float) -> SpectralData:
    """Reflectionless one-soliton scattering data."""
    if not A > 0:
        raise ValueError(f"amplitude must be positive, got {A}")
    if not math.isfinite(phi0):
        raise ValueError(f"soliton phase must be finite, got {phi0}")

    def abc(k, side=CutSide.OFF):
        fk, _ = fw_array(k, A, side)
        den = k + fk + 1j * A
        # a1_+(0) = 0, where a2 is infinite, and a1_-(0) is a pole, where
        # a2 takes its limit 0; reflection refuses both zeros.
        with np.errstate(divide="ignore", invalid="ignore"):
            a1 = (k + fk - 1j * A) / den
            return a1, np.where(den == 0, 0j, 1.0 / a1), np.zeros(a1.shape, dtype=complex)

    gamma = -1j * cmath.exp(1j * phi0)
    return SpectralData(
        A=A,
        abc=abc,
        a10=-1j / (2 * A),
        gamma_plus=gamma,
        gamma_minus=gamma,
        source=Source.REFLECTIONLESS_SOLITON,
        a1a2_ray=lambda s, sp=None: np.ones(np.shape(s), dtype=complex),
    )


# ---------------------------------------------------------------------------
# numerical Jost route
# ---------------------------------------------------------------------------

_ODE_TOL = 1e-12
# A cell of the transfer grid is bisected while its width times the
# midpoint misfit of the cubic through its edge and Gauss samples exceeds
# _CELL_TOL, the error budget of one cell.  First cells, and cells merged
# afterwards, are at most _CELL_WIDTH wide, so that no feature of the
# datum falls between samples.
_CELL_TOL = 1e-14
_CELL_WIDTH = 0.25
_GAUSS = math.sqrt(3.0) / 6.0  # Gauss points at the midpoint -+ _GAUSS * width
_NODES = np.array([-1.0, -2.0 * _GAUSS, 2.0 * _GAUSS, 1.0])  # edges and Gauss points
_CHUNK = 1 << 14  # k values times cells per vectorised pass


def _sample(sampler, x: np.ndarray) -> np.ndarray:
    """Rows q(x) and q(-x), one sampler call per point."""
    xs = np.concatenate([x, -x])
    return np.array([complex(sampler(float(t))) for t in xs], dtype=complex).reshape(2, -1)


def _lagrange(t: np.ndarray) -> np.ndarray:
    """Cubic Lagrange basis on _NODES at t (in half widths from the midpoint),
    shape (4, len(t))."""
    return np.array([
        np.prod([(t - _NODES[m]) / (_NODES[j] - _NODES[m]) for m in range(4) if m != j], axis=0)
        for j in range(4)
    ])


_MID = _lagrange(np.zeros(1))[:, 0]  # the cubic's value at the midpoint


def _half_cells(data: InitialData):
    """Cells of [0, w] with q(x) and q(-x) at their two Gauss points.

    Bisection ends a jump in a cell of width about _CELL_TOL / |jump| and a
    kink in one of width about sqrt(_CELL_TOL / |slope jump|), each inside
    a chain of ever smaller cells; _coarsen merges the chains back.  Returns
    the widths and the samples (2, 2, n) = (x / -x, Gauss point, cell) of
    the cells in the order of x.
    """
    w = data.decay_width
    edges = np.linspace(0.0, w, math.ceil(w / _CELL_WIDTH) + 1)
    qe = _sample(data.sampler, edges)
    a, b, qa, qb = edges[:-1], edges[1:], qe[:, :-1], qe[:, 1:]
    floor = 8.0 * np.finfo(float).eps * w
    done = []
    while a.size:
        h = b - a
        c = a + 0.5 * h
        x = np.concatenate([c - _GAUSS * h, c + _GAUSS * h, c])
        q1, q2, qc = _sample(data.sampler, x).reshape(2, 3, -1).transpose(1, 0, 2)
        fit = np.tensordot(np.stack([qa, q1, q2, qb]), _MID, axes=(0, 0))
        split = (h * np.max(np.abs(qc - fit), axis=0) > _CELL_TOL) & (h > floor)
        keep = ~split
        qg = np.stack([q1, q2], axis=1)
        done.append((a[keep], b[keep], qa[:, keep], qb[:, keep], qg[:, :, keep]))
        a, b = np.concatenate([a[split], c[split]]), np.concatenate([c[split], b[split]])
        qa = np.concatenate([qa[:, split], qc[:, split]], axis=1)
        qb = np.concatenate([qc[:, split], qb[:, split]], axis=1)
    lo, hi, qa, qb, qg = (np.concatenate(part, axis=-1) for part in zip(*done))
    order = np.argsort(lo)
    return _coarsen(data.sampler, lo[order], hi[order], qa[:, order], qb[:, order], qg[..., order])


def _coarsen(sampler, lo, hi, qa, qb, qg):
    """Merge runs of adjacent cells, no wider than _CELL_WIDTH, while the
    cubic through the run's edge and Gauss samples meets the bisection's
    rule at every Gauss point of the cells it replaces."""
    gx = (0.5 * (lo + hi))[:, None] + np.outer(hi - lo, [-_GAUSS, _GAUSS])
    hs, qgs = [], []
    i = 0
    while i < lo.size:
        j, q = i, qg[:, :, i]
        while j + 1 < lo.size and hi[j + 1] - lo[i] <= _CELL_WIDTH:
            h = hi[j + 1] - lo[i]
            c = lo[i] + 0.5 * h
            qn = _sample(sampler, np.array([c - _GAUSS * h, c + _GAUSS * h]))
            fit = np.column_stack([qa[:, i], qn, qb[:, j + 1]]) @ _lagrange(
                (gx[i:j + 2].ravel() - c) / (0.5 * h)
            )
            fine = qg[:, :, i:j + 2].transpose(0, 2, 1).reshape(2, -1)
            if h * np.max(np.abs(fit - fine)) > _CELL_TOL:
                break
            j, q = j + 1, qn
        hs.append(hi[j] - lo[i])
        qgs.append(q)
        i = j + 1
    return np.array(hs), np.stack(qgs, axis=-1)


def _series(z: np.ndarray, ratios) -> np.ndarray:
    """1 + z r0 (1 + z r1 (1 + ...)) by Horner's rule."""
    acc = z * ratios[-1]
    acc += 1.0
    for r in ratios[-2::-1]:
        acc *= z
        acc *= r
        acc += 1.0
    return acc


# cosh(om) = sum z^n / (2n)! and sinh(om)/om = sum z^n / (2n+1)!, z = om^2,
# as ratios of successive terms; through z^5 the remainder is below 1e-17
# relative for |z| <= _SERIES_Z.
_COSH = tuple(1.0 / ((2 * n + 1) * (2 * n + 2)) for n in range(5))
_SINHC = tuple(1.0 / ((2 * n + 2) * (2 * n + 3)) for n in range(5))
_SERIES_Z = 0.05


class _Transfer:
    """4th-order Magnus transfer matrix T(w, -w) of the Jost system
    Psi' = (-ik s3 + U(x)) Psi, U = [[0, q(x)], [-conj q(-x), 0]].

    The cell grid is symmetric on [-w, w] with an edge at 0, and U is
    sampled once at the two Gauss points x1 < x2 of every cell.  Each
    cell contributes exp(Omega) with
    Omega = h/2 (A(x1) + A(x2)) + sqrt(3)/12 h^2 [A(x2), A(x1)].
    """

    def __init__(self, data: InitialData):
        self.w = data.decay_width
        h, qg = _half_cells(data)
        # Left cells mirror the right ones: Gauss points -x2 < -x1.
        p1 = np.concatenate([qg[1, 1, ::-1], qg[0, 0]])
        p2 = np.concatenate([qg[1, 0, ::-1], qg[0, 1]])
        r1 = -np.conj(np.concatenate([qg[0, 1, ::-1], qg[1, 0]]))
        r2 = -np.conj(np.concatenate([qg[0, 0, ::-1], qg[1, 1]]))
        h = np.concatenate([h[::-1], h])
        c = math.sqrt(3.0) / 6.0 * h
        # Omega = [[d - ikh, bs - ikh bd], [gs + ikh gd, ikh - d]].
        self.ih = 1j * h
        self.d = 0.5 * c * h * (p2 * r1 - p1 * r2)
        self.bs, self.bd = 0.5 * h * (p1 + p2), c * (p1 - p2)
        self.gs, self.gd = 0.5 * h * (r1 + r2), c * (r1 - r2)

    def matrix(self, k: np.ndarray):
        """T(w, -w) at each k as its entries (t11, t12, t21, t22)."""
        chunks = np.array_split(k, max(1, math.ceil(k.size * self.ih.size / _CHUNK)))
        return tuple(np.concatenate(t) for t in zip(*map(self._product, chunks)))

    def _product(self, k: np.ndarray):
        ikh = k[:, None] * self.ih
        alpha = self.d - ikh
        beta = self.bs - ikh * self.bd
        gamma = self.gs + ikh * self.gd
        # exp(Omega) = cosh(om) I + sinh(om)/om Omega, om^2 = -det Omega,
        # from the series in om^2 on the small cells most grids are made of.
        z = alpha * alpha + beta * gamma
        ch = _series(z, _COSH)
        shc = _series(z, _SINHC)
        big = np.nonzero(z.real**2 + z.imag**2 > _SERIES_Z**2)
        if big[0].size:
            om = np.sqrt(z[big])
            ep = np.exp(om)
            em = 1.0 / ep
            ch[big] = 0.5 * (ep + em)
            shc[big] = 0.5 * (ep - em) / om
        sa = shc * alpha
        m = (ch + sa, shc * beta, shc * gamma, ch - sa)
        # Ordered product M_{n-1} ... M_0 by pairwise reduction.
        while m[0].shape[1] > 1:
            n = m[0].shape[1] // 2 * 2
            a11, a12, a21, a22 = (x[:, 0:n:2] for x in m)
            b11, b12, b21, b22 = (x[:, 1:n:2] for x in m)
            pairs = (
                b11 * a11 + b12 * a21, b11 * a12 + b12 * a22,
                b21 * a11 + b22 * a21, b21 * a12 + b22 * a22,
            )
            if n < m[0].shape[1]:
                pairs = tuple(np.concatenate([p, x[:, n:]], axis=1) for p, x in zip(pairs, m))
            m = pairs
        return tuple(x[:, 0] for x in m)

    def abc(self, k: np.ndarray, fk: np.ndarray, wk: np.ndarray, side: CutSide = CutSide.OFF):
        """(a1, a2, b) at k from the Wronskians at x = w, given f(k), w(k)
        and the side of the cut they were taken on.

        Outside [-w, w] the datum is its background, so the Jost columns
        there are E_j(k) e^{-+ixf}; only Psi_1 crosses the grid.  On the
        cut the Wronskian of a2 (above) or of a1 (below) is read through
        the growing factor e^{2w|f|}; that one comes from det S = 1,
        a1 a2 = 1 + b c, with c the other off-diagonal Wronskian (which is
        b on the other side), so that a2_+ = -a1_- as for the closed forms.
        """
        t11, t12, t21, t22 = self.matrix(k)
        e1 = 0.5 * (wk + 1.0 / wk)
        e2 = 0.5j * (wk - 1.0 / wk)
        x1, y1 = t11 * e1 + t12 * e2, t21 * e1 + t22 * e2  # T E1[:, 0]
        x2, y2 = t12 * e1 - t11 * e2, t22 * e1 - t21 * e2  # T E1[:, 1]
        ph = np.exp(2j * self.w * fk)
        b = e1 * y1 + e2 * x1
        if side is CutSide.OFF:
            return ph * (x1 * e1 - y1 * e2), (e1 * y2 + e2 * x2) / ph, b
        det = 1.0 + b * (x2 * e1 - y2 * e2)
        if side is CutSide.ABOVE:
            a1 = ph * (x1 * e1 - y1 * e2)
            return a1, det / a1, b
        a2 = (e1 * y2 + e2 * x2) / ph
        return det / a2, a2, b


def _norming_wronskian(data: InitialData, A: float, side: CutSide) -> complex:
    """det(Psi2_col1, Psi1_col1) at k = 0 on one side of the cut, by DOP853,
    or nan when it is below 1e-6 |Psi1_col1| |Psi2_col1| and so not resolved.

    The two columns are integrated to x = 0 from x = -+L_gamma, just past
    the support of the deviation, where the amplification e^{2 A L_gamma}
    of the k = 0 dichotomy stays benign.  The factor e^{-ixf} is removed
    analytically: v = Psi_col1 e^{ixf} solves v' = (-ik s3 + U(x) + if) v.
    """
    L_gamma = data.decay_width + 2.0 / A
    fk = f(0.0, A, side)

    def fun(x, y):
        q = complex(data.sampler(x))
        qm = complex(data.sampler(-x))
        return [1j * fk * y[0] + q * y[1], -np.conj(qm) * y[0] + 1j * fk * y[1]]

    def integrate(j, x0):
        sol = solve_ivp(
            fun, (x0, 0.0), background_matrix(j, 0.0, A, side)[:, 0],
            method="DOP853", rtol=_ODE_TOL, atol=_ODE_TOL,
        )
        if not sol.success:
            raise OdeToleranceFailure(f"Jost integration failed at k=0: {sol.message}")
        return sol.y[:, -1]

    v1 = integrate(1, -L_gamma)
    v2 = integrate(2, L_gamma)
    det = complex(v2[0] * v1[1] - v2[1] * v1[0])
    # The dichotomy amplifies both columns along the growing solution, so
    # as w grows they turn parallel and their determinant cancels to
    # rounding noise (exactly 0 for tanh 2x + 0.1i sech 3x at w = 40).
    if abs(det) < 1e-6 * np.linalg.norm(v1) * np.linalg.norm(v2):
        return complex("nan")
    return det


def jost_spectral(data: InitialData, A: float, k_samples) -> SpectralData:
    """Scattering data from the Jost solutions of a step-like datum.

    Outside [-w, w], w = decay_width, the datum is its background, so the
    Jost columns there are the background solutions E_j(k) e^{-+ixf}; the
    left ones cross [-w, w] by the Magnus transfer matrix of _Transfer,
    and a1, a2, b are Wronskians at x = w.  The samples and the small-k
    fit points are evaluated in one batch per side and memoised; any
    other k costs one more transfer product.  On the ray, a1a2_ray is the
    same product with f and w formed from the exact s + A when given.
    """
    tr = _Transfer(data)

    def abc(k, side=CutSide.OFF):
        return tr.abc(k, *fw_array(k, A, side), side)

    def a1a2_ray(s, sp=None):
        k = np.asarray(s, dtype=complex)
        a1, a2, _ = tr.abc(k, *fw_array(k, A, CutSide.OFF, sp))
        return a1 * a2

    k_samples = [complex(k) for k in k_samples]
    on_cut = [k for k in k_samples if k.imag == 0.0 and abs(k.real) < A]
    memo: dict = {}
    _tabulate(memo, abc, [k for k in k_samples if k not in on_cut], CutSide.OFF)
    above = _tabulate(memo, abc, on_cut + list(_FIT_KS * A), CutSide.ABOVE)
    _, a10, _ = _fit_small_k([v[0] for v in above[len(on_cut):]], A)

    # Norming constants from the k = 0 boundary values: for exponentially
    # decaying deviations b extends analytically and gamma_+ = b_+(0),
    # gamma_- = -conj(b_-(0)). At k = 0 the Jost systems have a real
    # exponential dichotomy with rate 2A, and a transfer product across
    # [-w, w] loses the subdominant coefficient, so these two come from
    # an ODE solver.
    sd = SpectralData(
        A=A,
        abc=abc,
        a10=a10,
        gamma_plus=_norming_wronskian(data, A, CutSide.ABOVE),
        gamma_minus=-np.conj(_norming_wronskian(data, A, CutSide.BELOW)),
        source=Source.NUMERIC_JOST,
        a1a2_ray=a1a2_ray,
    )
    sd._memo.update(memo)
    return sd


# ---------------------------------------------------------------------------
# reflection coefficients and assumption checks
# ---------------------------------------------------------------------------

_ZERO_A_TOL = 1e-12


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


def one_plus_r1r2_ray(sd: SpectralData) -> Callable[..., np.ndarray]:
    """Vectorized 1 + r1(s) r2(s) on the ray s < -A, as g(s, sp=None).

    Uses the determinant relation a1 a2 + b(s) conj(b(-s)) = 1, which turns
    the product into 1 / (a1 a2).  sp, the exact s + A, goes through to
    a1a2_ray, so that a node within rounding of -A keeps its distance
    there.  Data without a1a2_ray take the product from one abc call and
    ignore sp.
    """
    a1a2 = sd.a1a2_ray
    if a1a2 is None:

        def a1a2(s, sp=None):
            a1, a2, _ = sd.abc(s.astype(complex), CutSide.OFF)
            return a1 * a2

    return lambda s, sp=None: 1.0 / a1a2(np.asarray(s, dtype=float), sp)


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


def _closed_contour_winding(a1, A: float) -> float:
    """Total argument increment of the vector a1 along a closed rectangle
    in the upper half plane enclosing the zero-free region claimed by the
    assumptions.  One vector pass unwinds the samples, bisecting only steps
    that turn by pi/2 or more, as on the ray; cumsum sums them in order."""
    eps = 0.02 * A
    big = 12.0 * A
    top = 8.0 * A
    corners = [-big + 1j * eps, big + 1j * eps, big + 1j * top, -big + 1j * top, -big + 1j * eps]
    s = np.linspace(0.0, 1.0, 500, endpoint=False)
    pts = np.concatenate(
        [z0 + (z1 - z0) * s for z0, z1 in zip(corners[:-1], corners[1:])] + [corners[-1:]]
    )
    vals = a1(pts)
    d = np.angle(vals[1:] / vals[:-1])
    for i in np.flatnonzero(np.abs(d) >= 0.5 * np.pi):
        z0, dz = pts[i], pts[i + 1] - pts[i]
        d[i] = _arg_increment(lambda u: a1(z0 + dz * u), 0.0, 1.0, vals[i], vals[i + 1])
    return float(np.cumsum(d)[-1])


def check_assumptions(sd: SpectralData) -> AssumptionReport:
    """Sampled verification of the structural hypotheses used downstream.

    Reports (i) the argument-principle winding of a1 over an upper-half-
    plane contour (closed-form sources only), (ii) the simple zero of a1_+
    at the origin with purely imaginary linear coefficient, (iii) the
    running winding of arg(1 + r1 r2) on (-inf, -A) staying inside
    (-pi, pi), and (iv) whether 1 + r1 r2 vanishes at k = -A.  Both read
    1 + r1 r2 from one_plus_r1r2_ray, the form delta and F_inf integrate.
    """
    A = sd.A
    notes = []

    if sd.source is Source.NUMERIC_JOST:
        # The transfer product overflows on the contour's top edge once
        # w A exceeds about 44 (NaN at w = 50, A = 1), w = decay_width;
        # skipped for numeric data.
        a1_winding_raw = a1_winding = None
        notes.append("a1 contour winding skipped for numeric Jost data")
    else:
        a1_winding_raw = _closed_contour_winding(lambda z: sd.abc(z, CutSide.OFF)[0], A)
        a1_winding = int(round(a1_winding_raw / (2 * np.pi)))

    a1_fit = [v[0] for v in sd.at(_FIT_KS * A, CutSide.ABOVE)]
    a1_zero, a10_fit, resid = _fit_small_k(a1_fit, A)
    scale = max(abs(a1_fit[-1]), 1e-300)  # |a1_+(0.04 A)|
    simple_zero = abs(a1_zero) < 1e-6 * scale
    re_small = abs(a10_fit.real) <= 1e-6 * max(abs(a10_fit), 1e-300)

    if sd.source is Source.REFLECTIONLESS_SOLITON:
        notes.append("reflectionless data: 1 + r1 r2 = 1 identically")
    path = IntegrandSpec(eval=one_plus_r1r2_ray(sd), decay_estimate=ray_decay(A))
    _, cum = running_winding(path, -A * (1.0 + 1e-6))
    winding_sup = float(np.max(np.abs(cum)))
    at_minus_A, endpoint_val = endpoint_zero(sd)

    return AssumptionReport(
        a1_winding=a1_winding,
        a1_winding_raw=a1_winding_raw,
        a10=sd.a10,
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
