"""Long-time asymptotic evaluators built from Riemann-Hilbert quantities.

From the scattering data this module computes the phase-correcting
function delta(k, k1) with its exponent nu and winding Delta(k1), the
cut-straightening function F(k, k1) with its limit F_inf(k1), the
transition constant d(A), and finally the leading-order profiles:

* modulated sectors |xi| > A/2: plane-wave amplitude/phase shifted by
  F_inf(k1(|xi|)), algebraic error with exponent 1/2 - |Im nu|,
* central sectors 0 < |xi| < A/2: the same formula frozen at k1 = -A,
  with exponentially small error,
* transition rays at fixed x != 0: a tanh-like interpolation between the
  two central values governed by d(A),
* the exact one-soliton profile for reflectionless data.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .branches import CutSide, _check_amplitude, f
from .errors import (
    MissingNormingConstant,
    RegionMismatch,
    SingularStation,
    SolitonPole,
    ToleranceNotMet,
    WindingOutOfRange,
)
from .phase import Direction, RegionTag, classify, critical_points
from .quadrature import (
    DEFAULT_TOL,
    IntegrandSpec,
    cauchy_semiinfinite,
    cauchy_semiinfinite_pv,
    running_winding,
    semiinfinite_integral,
    tanh_sinh,
)
from .spectral import SpectralData, endpoint_zero, ray_decay

_STATION_GUARD = 1e-8
# Ray integrals meet DEFAULT_TOL; Re F_inf's tail and central piece a tenth of it.
_PIECE_TOL = DEFAULT_TOL / 10.0
# Re F_inf's panels take a _GL_N-point Gauss-Legendre rule.  A new panel
# is bisected until the rule over it and over its halves agree to
# _PANEL_TOL, at most _PANEL_DEPTH times.
_GL_N = 12
_PANEL_TOL = 1e-13
_PANEL_DEPTH = 50


# ---------------------------------------------------------------------------
# delta(k, k1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaData:
    """delta(k, k1) together with its endpoint exponent data.

    ``nu`` is nan+nan*i when 1 + r1 r2 vanishes at k1 = -A (there the
    endpoint behavior is algebraic with exponent driven by the winding
    Delta(k1) instead of nu).
    """

    A: float
    k1: float
    nu: complex
    Delta_k1: float
    delta_at: Callable[[complex], complex]
    log_delta_at: Callable[[complex], complex]
    delta_boundary: Callable[[float, CutSide], complex]
    log_g_at: Callable[[np.ndarray], np.ndarray]
    zero_at_minus_A: bool


def _unwound_log(sd: SpectralData, k1: float, g_at_k1: bool = False):
    """Continuous branch of ln g, g = sd.one_plus_r1r2_ray, on
    (-inf, k1], unwound from g(-inf) ~ 1: the one reader of the ray's
    running_winding samples (grid, cum).

    Returns (log_fn vectorized, Delta(k1) = cum[-1], g(k1)) and records
    Im F_inf(k1) from the same samples in the data's table.  g(k1) is
    None unless asked for; then the grid's call of g evaluates it too.
    The path stops a hair short of k1, where the value may vanish
    (endpoint zero); the argument extends by continuity.  log_fn takes the
    principal log and picks the branch nearest the linear interpolant of
    (grid, cum), so its imaginary part is the refined argument; the
    interpolant itself can miss it near a zero of g (see the FOUND line on
    Im F_inf in CHANGES.md).
    """
    A, gvec = sd.A, sd.one_plus_r1r2_ray
    spec = IntegrandSpec(eval=gvec, decay_estimate=ray_decay(A))
    k_end = k1 - 1e-9 * max(1.0, abs(k1))
    grid, cum, *g_k1 = running_winding(spec, k_end, np.array([k1]) if g_at_k1 else None)
    _table(sd).im_F_inf[k1] = _winding_over_root(grid, cum, k1, A) / (2 * np.pi)

    def log_fn(s):
        s = np.asarray(s, dtype=float)
        vals = gvec(s)
        principal = np.angle(vals)
        target = np.interp(s, grid, cum, left=0.0, right=cum[-1])
        branch = np.round((target - principal) / (2 * np.pi))
        out = np.empty(vals.shape, dtype=complex)
        np.log(np.abs(vals), out=out.real)
        np.add(principal, 2 * np.pi * branch, out=out.imag)
        return out

    return log_fn, float(cum[-1]), complex(g_k1[0][0]) if g_k1 else None


def _check_k1(k1: float, A: float) -> float:
    k1 = float(k1)
    if not (math.isfinite(k1) and k1 <= -A):
        raise ValueError(f"k1 must be finite with k1 <= -A, got k1={k1}, A={A}")
    return k1


def delta_data(sd: SpectralData, k1: float) -> DeltaData:
    """Construct delta(. , k1) = exp{(2 pi i)^{-1} int_{-inf}^{k1} ln(1+r1r2)/(z-k)}.

    The logarithm branch is unwound continuously from the normalized end
    at -inf.  For a modulated endpoint (k1 < -A) the winding must stay in
    (-pi, pi) or WindingOutOfRange is raised; at k1 = -A no winding bound
    is required, and a simple zero of 1 + r1 r2 at -A leaves nu undefined.
    Delta(k1) is then also the winding of the regularized factor
    ((z + A)/z)(1 + r1 r2), since (z + A)/z > 0 on z < -A.
    """
    A = sd.A
    k1 = _check_k1(k1, A)

    zero_at_minus_A = abs(k1 + A) <= 1e-12 * A and endpoint_zero(sd)[0]

    log_fn, Delta_k1, g_k1 = _unwound_log(sd, k1, g_at_k1=not zero_at_minus_A)
    if zero_at_minus_A:
        nu = complex(float("nan"), float("nan"))
    else:
        nu = -math.log(abs(g_k1)) / (2 * np.pi) - 1j * Delta_k1 / (2 * np.pi)

    if k1 < -A and abs(Delta_k1) >= np.pi:
        raise WindingOutOfRange(
            f"winding Delta(k1)={Delta_k1:.4f} outside (-pi, pi) at k1={k1}"
        )

    spec = IntegrandSpec(eval=log_fn, decay_estimate=ray_decay(A))

    def log_delta_at(k: complex) -> complex:
        return cauchy_semiinfinite(spec, k1, complex(k)) / (2j * np.pi)

    def delta_at(k: complex) -> complex:
        return cmath.exp(log_delta_at(k))

    def delta_boundary(x0: float, side: CutSide) -> complex:
        # Plemelj: the boundary values on (-inf, k1) are the principal
        # value plus/minus half the local logarithm.
        pv = cauchy_semiinfinite_pv(spec, k1, float(x0)) / (2j * np.pi)
        half = 0.5 * complex(log_fn(np.array([float(x0)]))[0])
        if side is CutSide.ABOVE:
            return cmath.exp(pv + half)
        if side is CutSide.BELOW:
            return cmath.exp(pv - half)
        raise ValueError("delta_boundary requires side ABOVE or BELOW")

    return DeltaData(
        A=A,
        k1=k1,
        nu=nu,
        Delta_k1=Delta_k1,
        delta_at=delta_at,
        log_delta_at=log_delta_at,
        delta_boundary=delta_boundary,
        log_g_at=log_fn,
        zero_at_minus_A=zero_at_minus_A,
    )


# ---------------------------------------------------------------------------
# F(k, k1), F_inf(k1) and d(A)
# ---------------------------------------------------------------------------


class _RayTable:
    """What the rays of one spectral data set share.

    Holds F_inf and Im F_inf by k1, d(A), the one tail
    T = int_{-inf}^{-2A} ln|1+r1r2(s)| / sqrt(s^2-A^2) ds, walked once,
    and the panels of that integrand in t = s + A from t = -A outward:
    toward t = 0 (side +1) and toward -inf (side -1).  ``edges[side]``
    are the outer edges of the side's panels, in order away from -A, and
    ``sums[side]`` the integrals between -A and each edge.
    It lives in the data's own memo (_table) and holds numbers only: no
    reference to the data, and no samples or closures.
    """

    def __init__(self):
        self.F_inf: dict[float, complex] = {}
        self.im_F_inf: dict[float, float] = {}
        self.dA: complex | None = None
        self.tail: float | None = None
        self.edges: dict[int, list[float]] = {1: [], -1: []}
        self.sums: dict[int, list[float]] = {1: [], -1: []}


def _table(sd: SpectralData) -> _RayTable:
    """The data's _RayTable, kept in its memo under a key that no side.value
    of _tabulate takes."""
    table = sd._memo.get("_ray_table")
    if table is None:
        table = sd._memo["_ray_table"] = _RayTable()
    return table


def _winding_over_root(grid: np.ndarray, cum: np.ndarray, k1: float, A: float) -> float:
    """int_{-inf}^{k1} arg(s) / sqrt(s^2-A^2) ds in closed form, for the
    winding interpolant arg = np.interp(s, grid, cum, left=0, right=cum[-1]).

    On each cell arg = a + b s, and for s < -A
    int (a + b s) / sqrt(s^2-A^2) ds = -a ln(-s + sqrt(s^2-A^2)) + b sqrt(s^2-A^2).
    Far out on the ray samples closer than the float spacing near k1 round
    onto one float; such a cell spans no s, and slope 0 gives its exact
    contribution 0.
    """
    root = np.sqrt(grid * grid - A * A)
    log_prim = -np.log(root - grid)
    # Slice differences are np.diff without its Python wrapper.
    ds = grid[1:] - grid[:-1]
    ds[ds == 0.0] = math.inf  # slope 0 on a cell of width 0
    slope = (cum[1:] - cum[:-1]) / ds
    cells = (cum[:-1] - slope * grid[:-1]) * (log_prim[1:] - log_prim[:-1]) + slope * (
        root[1:] - root[:-1]
    )
    last = -math.log(math.sqrt(k1 * k1 - A * A) - k1) - log_prim[-1]
    return float(np.sum(cells)) + float(cum[-1]) * last


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_N-point Gauss-Legendre rule on [-1, 1],
    built on first use: they take a LAPACK eigensolve, kept out of import."""
    return np.polynomial.legendre.leggauss(_GL_N)


def _gauss_legendre(fn, spans) -> list[float]:
    """The Gauss-Legendre rule over each span (lo, hi), from one call of fn."""
    x, w = _gl_rule()
    lo, hi = np.array(spans, dtype=float).T
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * x
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return (half * (vals * w).sum(axis=1)).tolist()


def _halves(spans):
    return [h for lo, hi in spans for h in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]


def _bisected(fn, spans):
    """Leaves (lo, hi, integral) of the panels spans, in order of lo.

    A panel is a leaf once the rule over it and the sum of the rule over
    its halves agree to _PANEL_TOL; its integral is that sum.  Otherwise
    its halves are tested in turn, one call of fn per level.  A leaf
    depends on its panel alone, not on the other spans.
    """
    n = len(spans)
    vals = _gauss_legendre(fn, spans + _halves(spans))
    wholes, parts = vals[:n], vals[n:]
    leaves = []
    for depth in range(_PANEL_DEPTH + 1):
        todo, todo_wholes = [], []
        for (lo, hi), whole, a, b in zip(spans, wholes, parts[::2], parts[1::2]):
            miss = abs(a + b - whole)
            if miss <= _PANEL_TOL:
                leaves.append((lo, hi, a + b))
                continue
            if not math.isfinite(miss) or depth == _PANEL_DEPTH:
                raise ToleranceNotMet(
                    f"Re F_inf panel [{lo}, {hi}] misses {miss:.3g} > {_PANEL_TOL}",
                    best=a + b,
                    error=miss,
                )
            mid = 0.5 * (lo + hi)
            todo += [(lo, mid), (mid, hi)]
            todo_wholes += [a, b]
        if not todo:
            break
        spans, wholes = todo, todo_wholes
        parts = _gauss_legendre(fn, _halves(spans))
    return sorted(leaves)


def _re_piece(table: _RayTable, fn, A: float, t1: float) -> float:
    """int_{-A}^{t1} fn(t) dt from the table's panels, built out as far as t1.

    New panels continue their side's sequence: edges -A 2^-j toward t = 0
    and -A 2^j toward -inf (capped at the largest float), so each panel
    keeps the singularity at t = 0 one width away, and a ray adds
    O(log(|t1| / A)) panels before bisection.  The ray adds the rule over
    the part of its leaf between the leaf's inner edge and t1.
    """
    side = 1 if t1 > -A else -1
    edges, sums = table.edges[side], table.sums[side]
    outer = edges[-1] if edges else -A
    new = []
    while side * (t1 - outer) > 0:
        nxt = 0.5 * outer if side > 0 else max(2.0 * outer, -sys.float_info.max)
        new.append((min(outer, nxt), max(outer, nxt)))
        outer = nxt
    if new:
        total = sums[-1] if sums else 0.0
        for lo, hi, val in _bisected(fn, new)[::side]:
            total += val
            edges.append(hi if side > 0 else lo)
            sums.append(total)
    k = bisect.bisect_left(edges, side * t1, key=lambda e: side * e)
    inner = edges[k - 1] if k else -A
    part = _gauss_legendre(fn, [tuple(sorted((inner, t1)))])[0]
    return side * ((sums[k - 1] if k else 0.0) + part)


def F_infinity(sd: SpectralData, k1: float) -> complex:
    """F_inf(k1), the logarithm of the large-k limit of F(k, k1).

    The defining double integral (Chebyshev weight in the outer variable,
    Cauchy kernel in the inner) is evaluated with the integration order
    swapped: the outer integral has the closed form
    int_{-A}^{A} dz / (sqrt(A^2 - z^2)(s - z)) = -pi / sqrt(s^2 - A^2) for
    s < -A, which collapses F_inf to single semi-infinite integrals

        Re F_inf = (1/2pi) int_{-inf}^{k1} ln|1+r1r2(s)| / sqrt(s^2-A^2) ds,
        Im F_inf = (1/2pi) int_{-inf}^{k1} Delta(s) / sqrt(s^2-A^2) ds.

    The real part is integrated in t = s + A, so that k1 = -A is exactly
    t = 0 and no node next to it is rounded onto it.  It is the one tail
    T = int_{-inf}^{-2A}, walked once per data set, plus the integral from
    t = -A to t1 = k1 + A.  At k1 = -A that is one tanh-sinh piece with
    its exact endpoint.  For k1 < -A it is the data's table of Gauss-
    Legendre panels (_re_piece): the sum of the panels between -A and t1's
    panel, plus or minus the rule over part of that panel.  Once a ray's
    panels exist, its real part costs one panel of integrand points.  In
    the imaginary part Delta(s) is the linear interpolant of the
    running_winding samples to k1 (0 to their left), integrated exactly
    cell by cell; near a zero of 1 + r1 r2 it misses the refined argument
    (FOUND line on Im F_inf in CHANGES.md).  The pass is delta_data's when
    one was made to k1, else its own.  Values are memoised per spectral
    data object for its lifetime.
    """
    A = sd.A
    k1 = _check_k1(k1, A)
    table = _table(sd)
    F = table.F_inf.get(k1)
    if F is not None:
        return F
    gvec = sd.one_plus_r1r2_ray

    def log_abs_over_root(t):
        # In t = s + A, so that a node next to s = -A keeps its distance
        # t to it; sqrt(s^2 - A^2) = sqrt(A - s) sqrt(-t).
        t = np.asarray(t, dtype=float)
        s = t - A
        return np.log(np.abs(gvec(s, t))) / (np.sqrt(A - s) * np.sqrt(-t))

    spec = IntegrandSpec(log_abs_over_root, ray_decay(A))
    if table.tail is None:
        table.tail = semiinfinite_integral(spec, -A, tol=_PIECE_TOL).real
    t1 = k1 + A  # exactly 0 at k1 = -A
    if t1 == 0.0:
        piece = tanh_sinh(spec.eval, -A, 0.0, tol=_PIECE_TOL)[0].real
    else:
        piece = _re_piece(table, spec.eval, A, t1)
    if k1 not in table.im_F_inf:
        _unwound_log(sd, k1)
    F = table.F_inf[k1] = complex((table.tail + piece) / (2 * np.pi), table.im_F_inf[k1])
    return F


def F_at(sd: SpectralData, dd: DeltaData, k: complex, side: CutSide = CutSide.OFF) -> complex:
    """F(k, k1), valid off the cut and (with a side) on (-A, A).

    The defining cut integral of ln delta is collapsed by a partial-
    fraction swap of the integration order into a single semi-infinite
    integral,

        ln F(k) = (1/2 pi i) int_{-inf}^{k1}
                  ln(1+r1r2)(s) (f(s) - f(k)) / (f(s)(s - k)) ds,

    where f(s) = -sqrt(s^2 - A^2) on the ray.  The evaluation point
    enters only through f(k) and the Cauchy kernel, so the boundary
    values on (-A, A) come from substituting the side value of f: the
    product identity F_+ F_- = delta^2 is then automatic.
    """
    A, k1 = dd.A, dd.k1
    fk = f(k, A, side)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        fs = -np.sqrt(s * s - A * A)
        return dd.log_g_at(s) * (fs - fk) / fs

    spec = IntegrandSpec(integrand, ray_decay(A))
    val = cauchy_semiinfinite(spec, k1, complex(k)) / (2j * np.pi)
    return cmath.exp(val)


def F_plus_at_zero(sd: SpectralData, dd: DeltaData) -> complex:
    """Above-side boundary value F_+(0, k1)."""
    return F_at(sd, dd, 0.0, CutSide.ABOVE)


def transition_dA(sd: SpectralData) -> complex:
    """Transition constant d(A) = gamma_+ F_+^2(0,-A) / (a10 delta^2(0,-A)),
    memoised per spectral data object for its lifetime.

    F's kernel splits as (f(s) - f(k)) / (f(s)(s - k)) =
    1/(s - k) - f(k) / (f(s)(s - k)), and the first part integrates to
    ln delta.  So the ratio takes one walk,

        ln F_+(0) - ln delta(0) = (1/2 pi i) int_{-inf}^{-A}
                                  f_+(0) ln(1+r1r2)(s) / (sqrt(s^2 - A^2) s) ds,

    and d(A) = (gamma_+ / a10) exp(2 (ln F_+(0) - ln delta(0))).  The pole
    at 0 lies off the ray, so it is a plain walk with 1/s as the last
    factor.  f_+(0) = iA stays inside the integrand, so the walker's
    absolute tolerance sees the scale of F_+(0)'s own walk.
    """
    gamma = complex(sd.gamma_plus())
    if cmath.isnan(gamma):
        raise MissingNormingConstant("spectral data has no norming constant gamma_+")
    if sd.a10 is None or sd.a10 == 0 or cmath.isnan(complex(sd.a10)):
        raise MissingNormingConstant("spectral data has no valid a10 coefficient")
    table = _table(sd)
    if table.dA is None:
        A = sd.A
        log_g = delta_data(sd, -A).log_g_at
        fp0 = f(0.0, A, CutSide.ABOVE)

        def integrand(s):
            s = np.asarray(s, dtype=float)
            return fp0 * log_g(s) * (1.0 / np.sqrt(s * s - A * A)) * (1.0 / s)

        spec = IntegrandSpec(integrand, ray_decay(A))
        log_ratio = semiinfinite_integral(spec, -A) / (2j * np.pi)
        table.dA = gamma / complex(sd.a10) * cmath.exp(2.0 * log_ratio)
    return table.dA


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticParams:
    """Frozen ingredients of a leading-order profile evaluation."""

    region: RegionTag
    A: float
    k1: float
    F_inf: complex
    error_exponent: float  # 1/2 - |Im nu| in modulated sectors, inf otherwise
    dA: complex | None = None


def modulated_params(sd: SpectralData, xi: float) -> AsymptoticParams:
    region = classify(Direction(xi, sd.A))
    if region not in (RegionTag.MODULATED_PLUS, RegionTag.MODULATED_MINUS):
        raise RegionMismatch(f"xi={xi} (A={sd.A}) lies in {region.value}, not a modulated sector")
    k1, _ = critical_points(Direction(abs(xi), sd.A))
    dd = delta_data(sd, k1)  # enforces the winding bound
    F_inf = F_infinity(sd, k1)
    exponent = 0.5 - abs(dd.nu.imag)
    return AsymptoticParams(region, sd.A, k1, F_inf, exponent)


def central_params(sd: SpectralData, xi: float) -> AsymptoticParams:
    region = classify(Direction(xi, sd.A))
    if region not in (RegionTag.CENTRAL_PLUS, RegionTag.CENTRAL_MINUS):
        raise RegionMismatch(f"xi={xi} (A={sd.A}) lies in {region.value}, not a central sector")
    F_inf = F_infinity(sd, -sd.A)
    return AsymptoticParams(region, sd.A, -sd.A, F_inf, math.inf)


def transition_params(sd: SpectralData) -> AsymptoticParams:
    # d(A) first: it refuses data without a norming constant before the
    # F_inf walk, which can be long on coarsely sampled data.
    dA = transition_dA(sd)
    F_inf = F_infinity(sd, -sd.A)
    return AsymptoticParams(RegionTag.TRANSITION_AXIS, sd.A, -sd.A, F_inf, math.inf, dA)


def _plane_wave(A: float, F_inf: complex, t: float, positive_side: bool) -> complex:
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got t={t}")
    phase = cmath.exp(-2j * (A * A * t - F_inf.real))
    if positive_side:
        return A * math.exp(-2.0 * F_inf.imag) * phase
    return -A * math.exp(2.0 * F_inf.imag) * phase


def q_modulated(
    sd: SpectralData, xi: float, t: float, params: AsymptoticParams | None = None
) -> complex:
    """Leading term along the ray x = 4 xi t in a modulated sector."""
    p = params if params is not None else modulated_params(sd, xi)
    if p.region not in (RegionTag.MODULATED_PLUS, RegionTag.MODULATED_MINUS):
        raise RegionMismatch(f"params region {p.region} is not modulated")
    return _plane_wave(p.A, p.F_inf, t, p.region is RegionTag.MODULATED_PLUS)


def q_central(
    sd: SpectralData, xi: float, t: float, params: AsymptoticParams | None = None
) -> complex:
    """Leading term in a central sector; xi-independent within each side."""
    p = params if params is not None else central_params(sd, xi)
    if p.region not in (RegionTag.CENTRAL_PLUS, RegionTag.CENTRAL_MINUS):
        raise RegionMismatch(f"params region {p.region} is not central")
    return _plane_wave(p.A, p.F_inf, t, p.region is RegionTag.CENTRAL_PLUS)


def q_transition(
    sd: SpectralData, x: float, t: float, params: AsymptoticParams | None = None
) -> complex:
    """Leading term along fixed x != 0 as t grows (transition strip): the
    central plane wave of x's side times (2A - i D e) / (2A + i D e), with
    e = e^(-2A|x|) in (0, 1] and D = d(A) for x > 0, -conj d(A) for x < 0."""
    if not math.isfinite(x):
        raise ValueError(f"station must be finite, got x={x}")
    if x == 0.0:
        raise RegionMismatch("the transition profile is not defined at x = 0")
    p = params if params is not None else transition_params(sd)
    if p.region is not RegionTag.TRANSITION_AXIS:
        raise RegionMismatch(f"params region {p.region} is not the transition axis")
    A, D = p.A, (p.dA if x > 0 else -p.dA.conjugate())
    De = D * cmath.exp(-2.0 * A * abs(x))
    den = 2.0 * A + 1j * De
    if abs(den) < _STATION_GUARD:
        raise SingularStation(f"singular station: |2A + i D e^(-2A|x|)| < {_STATION_GUARD} at x={x}")
    return _plane_wave(A, p.F_inf, t, x > 0) * ((2.0 * A - 1j * De) / den)


def transition_continuous_at_zero(sd: SpectralData) -> bool:
    """Whether the transition main term is continuous at x = 0: either
    Im F_inf = 0 with |d(A)| = 2A and d(A) != 2iA, or d(A) = -2iA."""
    A = sd.A
    dA = transition_dA(sd)
    F_inf = F_infinity(sd, -A)
    eps = 1e-6 * A
    if abs(dA + 2j * A) < eps:
        return True
    return (
        abs(F_inf.imag) < 1e-6
        and abs(abs(dA) - 2.0 * A) < eps
        and abs(dA - 2j * A) >= eps
    )


def q_soliton(A: float, phi0: float, x: float, t: float) -> complex:
    """Exact one-soliton profile A e^{-2iA^2 t} tanh(Ax - i phi0/2 - i pi/4)."""
    _check_amplitude(A)
    z = A * x - 0.5j * phi0 - 0.25j * np.pi
    if abs(z.real) < 30.0 and abs(cmath.cosh(z)) < 1e-12:
        raise SolitonPole(f"soliton pole at x={x}, phi0={phi0}")
    return A * cmath.exp(-2j * A * A * t) * cmath.tanh(z)
