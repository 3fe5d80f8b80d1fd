"""Scattering data for step-like initial profiles.

The direct problem maps initial data q0 to the spectral functions
(a1, a2, b), their cut boundary values, the zero coefficient a10 of
a1+ at k = 0, and the norming constant gamma_+.  Each source is one
vector evaluator abc(k, side) of (a1, a2, b) on an array of k:

* closed forms for the pure asymmetric step q0 = -A for x < R, +A for
  x > R (three branches by the sign of R),
* reflectionless one-soliton data,
* the Jost solutions of a sampled step-like datum: exact background
  solutions outside the deviation's support and a 4th-order Magnus
  transfer matrix across it, on a cell grid built from the sampler,
  whose cells also carry the norming constant at k = 0 on first use.

Each source also gives 1 + r1 r2 = 1 / (a1 a2) on the ray s < -A, which
the quadratures of the asymptotic layer evaluate.  The closed forms and
the numerical route are interchangeable on pure steps, which is the main
cross-validation used by the test suite.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
# Unused here; kept while the bench tracer wraps nnlstep.spectral.solve_ivp.
from scipy.integrate import solve_ivp  # noqa: F401

from .branches import CutSide, _check_amplitude, background_matrix, fw_array, h_array
from .errors import DivisionByZeroSpectral
from .quadrature import IntegrandSpec, running_winding, unwound_steps


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
        _check_amplitude(self.A)
        if not math.isfinite(self.R):
            raise ValueError(f"step location must be finite, got {self.R}")

    def sample(self, x):
        # A Jost cell grid samples one float at a time (np.float64 is one).
        if isinstance(x, float):
            return complex(self.A if x >= self.R else -self.A)
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
    in one abc call and kept there.  memo holds one dict of complex k per
    side.value: a key holding the CutSide would run Enum.__hash__, in
    Python, once per k."""
    table = memo.setdefault(side.value, {})
    keys = [complex(k) for k in ks]
    new = list(dict.fromkeys(k for k in keys if k not in table))
    if new:
        vals = abc(np.array(new), side)
        table.update(zip(new, zip(*(v.tolist() for v in vals))))
    return [table[k] for k in keys]


@dataclass(frozen=True)
class SpectralData:
    """Scattering data: one vector evaluator plus derived constants.

    abc(k, side) gives the arrays (a1, a2, b) on an array of complex k,
    all off the cut (-A, A) with side OFF or all on it with the side of
    the boundary value.  The methods a1, a2 and b are its scalar values,
    and ``at`` its values at a list of k; both memoise per object.
    gamma_plus() gives the norming constant of the k = 0 zero (b_+(0)
    when b is analytic), nan when the Jost route cannot resolve it; only
    d(A) calls it.  a10 is the linear coefficient of a1_+ at k = 0.
    one_plus_r1r2_ray(s, sp=None) is 1 + r1(s) r2(s) = 1 / (a1(s) a2(s))
    elementwise on the ray s < -A (the determinant relation
    a1 a2 + b(s) conj(b(-s)) = 1); sp, when given, is the exact s + A (see
    branches.f_array), so that nodes next to -A keep their distance.
    """

    A: float
    abc: Callable[[np.ndarray, CutSide], tuple[np.ndarray, np.ndarray, np.ndarray]]
    a10: complex
    gamma_plus: Callable[[], complex]
    source: Source
    one_plus_r1r2_ray: Callable[..., np.ndarray]

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
    f^2 = (A - s)(-sp) and h = -sqrt(s^2 + A^2) are real, and the product
    of _step_pm's p and m is P1 M1 e^{4ihR} + P2 M2 e^{-4ihR} - (P1 M2 + P2 M1).
    As f^2 - h^2 = -2A^2 and f^2 + h^2 = 2s^2, its coefficients are
    P1 M1 + P2 M2 = 2A^2(A^2 + 2s^2), P1 M1 - P2 M2 = 4A^2 s h and
    P1 M2 + P2 M1 = 2A^4 - 4s^4, so f itself is never formed:
    a1 a2 = (A^2(A^2 + 2s^2) cos 4hR - A^4 + 2s^4 + 2i A^2 s h sin 4hR) / (2 f^2 h^2).
    """
    s = np.asarray(s, dtype=float)
    sp = s + A if sp is None else np.asarray(sp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ff = (A - s) * -sp  # f^2
        ss = s * s
        if R == 0.0:
            return (ss / ff).astype(complex)
        AA = A * A
        hh = ss + AA  # h^2
        h = -np.sqrt(hh)
        phase = 4.0 * R * h
        scale = 0.5 / (ff * hh)  # 1 / (2 f^2 h^2)
        out = np.empty(s.shape, dtype=complex)
        out.real = (AA * (AA + 2.0 * ss) * np.cos(phase) - AA * AA + 2.0 * ss * ss) * scale
        out.imag = 2.0 * AA * s * h * np.sin(phase) * scale
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
        gamma_plus=lambda: gamma,
        source=Source.CLOSED_FORM_STEP,
        one_plus_r1r2_ray=lambda s, sp=None: 1.0 / _step_a1a2_vec(s, A, R, sp),
    )


def soliton_spectral(A: float, phi0: float) -> SpectralData:
    """Reflectionless one-soliton scattering data."""
    _check_amplitude(A)
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
        gamma_plus=lambda: gamma,
        source=Source.REFLECTIONLESS_SOLITON,
        one_plus_r1r2_ray=lambda s, sp=None: np.ones(np.shape(s), dtype=complex),
    )


# ---------------------------------------------------------------------------
# numerical Jost route
# ---------------------------------------------------------------------------

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


# Row j of the basis is the product over m != j, in increasing m, of
# (t - _NODES[m]) / (_NODES[j] - _NODES[m]); _OTHER holds those _NODES[m]
# and _DENOM the differences, each of shape (4, 3, 1).
_OTHER = np.array([[_NODES[m] for m in range(4) if m != j] for j in range(4)])[:, :, None]
_DENOM = _NODES[:, None, None] - _OTHER


def _lagrange(t: np.ndarray) -> np.ndarray:
    """Cubic Lagrange basis on _NODES at t (in half widths from the midpoint),
    shape (4, len(t)); each row's three factors are multiplied left to right."""
    f = (t - _OTHER) / _DENOM
    return f[:, 0] * f[:, 1] * f[:, 2]


_MID = _lagrange(np.zeros(1))[:, 0].tolist()  # the cubic's value at the midpoint


def _refuse_non_finite(xs, qs) -> None:
    """ValueError naming the first x whose sample is NaN or infinite, if any."""
    for x, q in zip(xs, qs):
        if not cmath.isfinite(q):
            raise ValueError(f"initial datum is not finite at x={x:.6g}")


def _half_cells(data: InitialData):
    """Cells of [0, w] with q(x) and q(-x) at their two Gauss points.

    Bisection ends a jump in a cell of width about _CELL_TOL / |jump| and a
    kink in one of width about sqrt(_CELL_TOL / |slope jump|), each inside
    a chain of ever smaller cells; _coarsen merges the chains back.  Cells
    are tested one by one in floats, depth first, so a level costs only its
    sampler calls.  Returns the widths and the samples (2, 2, n) =
    (x / -x, Gauss point, cell) of the cells in the order of x.  A NaN or
    infinite sample raises ValueError: its misfit would pass any cell.
    """
    w, s = data.decay_width, data.sampler
    m0, m1, m2, m3 = _MID
    floor = 8.0 * np.finfo(float).eps * w
    x = np.linspace(0.0, w, math.ceil(w / _CELL_WIDTH) + 1).tolist()
    qe = [(s(t), s(-t)) for t in x]
    todo = [(x[n], x[n + 1], *qe[n], *qe[n + 1]) for n in reversed(range(len(x) - 1))]
    cells = []
    while todo:
        a, b, pa, ra, pb, rb = todo.pop()
        h = b - a
        c = a + 0.5 * h
        x1, x2 = c - _GAUSS * h, c + _GAUSS * h
        p1, p2, pc, r1, r2, rc = s(x1), s(x2), s(c), s(-x1), s(-x2), s(-c)
        dp = abs(pc - (m0 * pa + m1 * p1 + m2 * p2 + m3 * pb))
        dr = abs(rc - (m0 * ra + m1 * r1 + m2 * r2 + m3 * rb))
        if not dp + dr < math.inf:  # all ten samples enter, and NaN fails <
            _refuse_non_finite((a, x1, c, x2, b, -a, -x1, -c, -x2, -b),
                               (pa, p1, pc, p2, pb, ra, r1, rc, r2, rb))
        misfit = max(dp, dr)
        if h * misfit > _CELL_TOL and h > floor:
            todo += [(c, b, pc, rc, pb, rb), (a, c, pa, ra, pc, rc)]
        else:
            cells.append((a, b, pa, ra, pb, rb, p1, r1, p2, r2))
    lo, hi, *q = zip(*cells)
    q = np.array(q, dtype=complex).reshape(4, 2, -1)  # (edges, Gauss points), x / -x, cell
    return _coarsen(s, np.array(lo), np.array(hi), q[0], q[1], q[2:].transpose(1, 0, 2))


def _coarsen(sampler, lo, hi, qa, qb, qg):
    """Merge runs of adjacent cells, no wider than _CELL_WIDTH, while the
    cubic through the run's edge and Gauss samples meets the bisection's
    rule at every Gauss point of the cells it replaces.  A run from cell i
    gallops to i+1, i+2, i+4, ..., then bisects at the first failure."""
    # The Gauss points of the cells and their samples (x / -x), both in x order.
    gx = ((0.5 * (lo + hi))[:, None] + np.outer(hi - lo, [-_GAUSS, _GAUSS])).ravel()
    fine = qg.transpose(0, 2, 1).reshape(2, -1)
    lo, hi = lo.tolist(), hi.tolist()
    (pa, ra), (pb, rb) = qa.tolist(), qb.tolist()

    def merged(i, j):
        """Gauss samples of the cell merged from cells i..j, or None."""
        h = hi[j] - lo[i]
        c = lo[i] + 0.5 * h
        x1, x2 = c - _GAUSS * h, c + _GAUSS * h
        # Rows x / -x: the run's edge samples around the merged cell's Gauss samples.
        q = np.array([[pa[i], sampler(x1), sampler(x2), pb[j]],
                      [ra[i], sampler(-x1), sampler(-x2), rb[j]]], dtype=complex)
        fit = q @ _lagrange((gx[2 * i:2 * j + 2] - c) / (0.5 * h))
        err = h * np.abs(fit - fine[:, 2 * i:2 * j + 2]).max()
        if not err < math.inf:  # NaN or inf: the fit takes every new sample
            _refuse_non_finite((x1, x2, -x1, -x2), q[:, 1:3].ravel().tolist())
        return None if err > _CELL_TOL else q[:, 1:3]

    hs, qgs = [], []
    i = 0
    while i < len(lo):
        top = bisect.bisect_right(hi, _CELL_WIDTH, i + 1, key=lambda x: x - lo[i]) - 1
        j, q, bad = i, qg[:, :, i], top + 1  # the longest run passed, the shortest failed
        while bad - j > 1:
            k = min(i + max(1, 2 * (j - i)), top) if bad > top else (j + bad) // 2
            if (qk := merged(i, k)) is None:
                bad = k
            else:
                j, q = k, qk
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

    def cells(self, k: np.ndarray):
        """exp(Omega) of every cell at each k as its entries (m11, m12, m21,
        m22), each of shape (len(k), cells) with the cells in x order."""
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
        return ch + sa, shc * beta, shc * gamma, ch - sa

    def _product(self, k: np.ndarray):
        m = self.cells(k)
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


def _norming_wronskian(tr: _Transfer, A: float) -> complex:
    """gamma_+ = det(Psi2_col1, Psi1_col1) at k = 0 above the cut (b_+(0),
    as b extends analytically), or nan below 1e-6 |Psi1_col1| |Psi2_col1|,
    where it is not resolved.  At k = 0 the Jost systems have a real
    dichotomy with rate 2A, across which a product of the cells loses the
    subdominant coefficient; so the cells carry the background columns
    from -+w to x = 0 one at a time, each rounding error staying relative
    to the column carried.  The factor e^{-ixf} is removed: across a cell
    of width h, v = Psi_col1 e^{ixf} gains e^{-+Ah}, as f = iA.
    """
    m11, m12, m21, m22 = (m[0].tolist() for m in tr.cells(np.zeros(1)))
    scale = np.exp(-A * tr.ih.imag).tolist()
    n = len(scale) // 2  # the left cells come first
    x1, y1 = background_matrix(1, 0.0, A, CutSide.ABOVE)[:, 0].tolist()
    for j in range(n):
        x1, y1 = (m11[j] * x1 + m12[j] * y1) * scale[j], (m21[j] * x1 + m22[j] * y1) * scale[j]
    x2, y2 = background_matrix(2, 0.0, A, CutSide.ABOVE)[:, 0].tolist()
    for j in reversed(range(n, len(scale))):  # exp(-Omega) is the adjugate, as tr Omega = 0
        x2, y2 = (m22[j] * x2 - m12[j] * y2) / scale[j], (m11[j] * y2 - m21[j] * x2) / scale[j]
    det = x2 * y1 - y2 * x1
    # The dichotomy amplifies both columns along the growing solution, so
    # as w grows they turn parallel and their determinant cancels to
    # rounding noise.
    if abs(det) < 1e-6 * np.linalg.norm([x1, y1]) * np.linalg.norm([x2, y2]):
        return complex("nan")
    return det


def jost_spectral(data: InitialData, A: float, k_samples) -> SpectralData:
    """Scattering data from the Jost solutions of a step-like datum.

    Outside [-w, w], w = decay_width, the datum is its background, so the
    Jost columns there are the background solutions E_j(k) e^{-+ixf}; the
    left ones cross [-w, w] by the Magnus transfer matrix of _Transfer,
    and a1, a2, b are Wronskians at x = w.  The samples, the Schwarz
    mirrors -conj(k) of those off the cut (reflection's r2 needs b
    there) and the small-k fit points are evaluated in one batch per side
    and memoised; any other k costs one more transfer product.  On the
    ray, 1 + r1 r2 = 1 / (a1 a2) comes from the same product with f and w
    formed from the exact s + A when given.
    A build is transfer products only: gamma_plus sweeps the cells at
    k = 0 on its first call (_norming_wronskian).
    """
    tr = _Transfer(data)

    def abc(k, side=CutSide.OFF):
        return tr.abc(k, *fw_array(k, A, side), side)

    def one_plus_r1r2_ray(s, sp=None):
        k = np.asarray(s, dtype=complex)
        a1, a2, _ = tr.abc(k, *fw_array(k, A, CutSide.OFF, sp))
        return 1.0 / (a1 * a2)

    k_samples = [complex(k) for k in k_samples]
    on_cut = [k for k in k_samples if k.imag == 0.0 and abs(k.real) < A]
    memo: dict = {}
    off = [k for k in k_samples if k not in on_cut]
    _tabulate(memo, abc, off + [-k.conjugate() for k in off], CutSide.OFF)
    above = _tabulate(memo, abc, on_cut + list(_FIT_KS * A), CutSide.ABOVE)
    _, a10, _ = _fit_small_k([v[0] for v in above[len(on_cut):]], A)
    sd = SpectralData(
        A=A,
        abc=abc,
        a10=a10,
        gamma_plus=functools.cache(lambda: _norming_wronskian(tr, A)),
        source=Source.NUMERIC_JOST,
        one_plus_r1r2_ray=one_plus_r1r2_ray,
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
    # One lookup: (a1, a2, b) at k and, off the cut, at the mirror -conj(k).
    (a1v, a2v, bv), *mirror = sd.at([k, -k.conjugate()] if side is CutSide.OFF else [k], side)
    if abs(a1v) < _ZERO_A_TOL:
        raise DivisionByZeroSpectral(f"a1 vanishes at k={k}")
    if abs(a2v) < _ZERO_A_TOL:
        raise DivisionByZeroSpectral(f"a2 vanishes at k={k}")
    r1 = bv / a1v
    if mirror:  # np.conj makes this NumPy's complex division, to the last bit
        r2 = np.conj(mirror[0][2]) / a2v
    else:
        r2 = -bv / a2v
    return complex(r1), complex(r2)


def one_plus_r1r2(sd: SpectralData, k: float, side: CutSide = CutSide.OFF) -> complex:
    r1, r2 = reflection(sd, k, side)
    return 1.0 + r1 * r2


def endpoint_zero(sd: SpectralData) -> tuple[bool, complex]:
    """Whether 1 + r1 r2 vanishes at k = -A, with the probe value.

    The probe sits at -A(1 + 1e-8) and counts as zero below 1e-6 times the
    modulus at the reference point -2A.
    """
    A = sd.A
    g = sd.one_plus_r1r2_ray
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
    assumptions, unwound by unwound_steps as on the ray; cumsum sums the
    steps in order (np.sum would pair them and change the last bit)."""
    eps = 0.02 * A
    big = 12.0 * A
    top = 8.0 * A
    corners = [-big + 1j * eps, big + 1j * eps, big + 1j * top, -big + 1j * top, -big + 1j * eps]
    s = np.linspace(0.0, 1.0, 500, endpoint=False)
    pts = np.concatenate(
        [z0 + (z1 - z0) * s for z0, z1 in zip(corners[:-1], corners[1:])] + [corners[-1:]]
    )
    _, d = unwound_steps(a1, pts)
    return float(np.cumsum(d)[-1])


def check_assumptions(sd: SpectralData) -> AssumptionReport:
    """Sampled verification of the structural hypotheses used downstream.

    Reports (i) the argument-principle winding of a1 over an upper-half-
    plane contour (closed-form sources only), (ii) the simple zero of a1_+
    at the origin with purely imaginary linear coefficient, (iii) the
    running winding of arg(1 + r1 r2) on (-inf, -A) staying inside
    (-pi, pi), and (iv) whether 1 + r1 r2 vanishes at k = -A.  Both read
    the data's one_plus_r1r2_ray, the form delta and F_inf integrate.
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
    path = IntegrandSpec(eval=sd.one_plus_r1r2_ray, decay_estimate=ray_decay(A))
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
