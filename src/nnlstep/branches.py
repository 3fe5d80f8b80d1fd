"""Branch-cut special functions of the spectral parameter k.

All multivalued functions are realized through principal roots of
cross-ratio factors, with the branch fixed by the large-k normalization:

    f(k) = (k^2 - A^2)^(1/2) = k + O(1/k),      cut on [-A, A]
    w(k) = ((k-A)/(k+A))^(1/4) = 1 + O(1/k),    cut on [-A, A]
    h(k) = (k^2 + A^2)^(1/2) = k + O(1/k),      cut on [-iA, iA]

Boundary values on the cut are computed from closed formulas (never from
epsilon-limits): approaching (-A, A) from above,

    f_+(x) = i sqrt(A^2 - x^2),     w_+(x) = ((A-x)/(A+x))^(1/4) e^{i pi/4},

and the below-side values are the respective conjugate-type partners.
Evaluation exactly at a branch point is a hard error; downstream formulas
blow up like (k -+ A)^(-1/4) there and callers must perturb.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import BranchDomainError, BranchPointError, BranchPointProximity

# Relative distance below which k counts as "exactly at" a branch point.
_BRANCH_POINT_RTOL = 1e-13


class CutSide(enum.Enum):
    """Which nontangential limit onto a cut is requested."""

    ABOVE = "above"
    BELOW = "below"
    OFF = "off"


def _check_amplitude(A: float) -> float:
    A = float(A)
    if not 0.0 < A < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    return A


def _validate_horizontal(k: complex, A: float, name: str) -> complex:
    """The scalar branch-point check of f and w: k within _BRANCH_POINT_RTOL
    A of +-A is refused.  fw_array makes the cut and side checks."""
    k = complex(k)
    if abs(k - A) <= _BRANCH_POINT_RTOL * A or abs(k + A) <= _BRANCH_POINT_RTOL * A:
        raise BranchPointError(f"{name}(k) requested at branch point, k={k}, A={A}")
    return k


def f_array(k, A: float, sp=None):
    """Unchecked f off the cut, elementwise: principal sqrt(k-A)*sqrt(k+A).

    The two principal cuts cancel on (-inf, -A), leaving a single cut on
    [-A, A] and f ~ k at infinity.  Callers keep k off [-A, A].  sp, when
    given, is k + A as the caller knows it exactly (a ray quadrature node's
    distance to -A, which k itself may have rounded away); it stands in
    for the rounded k + A.
    """
    kp = k + A if sp is None else np.asarray(sp, dtype=complex)
    return np.sqrt(k - A) * np.sqrt(kp)


def h_array(k, A: float):
    """h elementwise for complex k.  On the cut [-iA, iA] it takes the root
    sqrt(k^2 + A^2), which suits functions that are even in h; only k
    exactly at +-iA is refused."""
    k = np.asarray(k, dtype=complex)
    if np.any((k == 1j * A) | (k == -1j * A)):
        raise BranchPointError(f"h(k) requested at a branch point +-{A}i")
    cut = (k.real == 0.0) & (np.abs(k.imag) < A)
    axis = k.imag == 0.0
    # z sqrt(1 + A^2/z^2): the principal-sqrt cut maps exactly onto
    # [-iA, iA]; z stands in for k where the other two forms apply.  On the
    # real axis h = sign(x) sqrt(x^2 + A^2), by continuity from h ~ x.
    z = np.where(cut | axis, 1.0, k)
    general = z * np.sqrt(1.0 + (A * A) / (z * z))
    x = k.real
    real = np.sign(x) * np.sqrt(x * x + A * A)
    return np.where(cut, np.sqrt(k * k + A * A), np.where(axis, real, general))


def fw_array(k, A: float, side: CutSide, sp=None):
    """f(k) and w(k) elementwise, for complex k all on the cut with side
    ABOVE or BELOW, or all off it with side OFF.  Only k exactly at +-A is
    refused: the background eigenvectors grow like |k -+ A|^(-1/4) but
    stay finite one rounding step away, where the ray quadratures place
    nodes.  Off the cut, sp is the exact k + A as in f_array: f and w
    are then formed from it, and only sp = 0 counts as k = -A."""
    k = np.asarray(k, dtype=complex)
    kp = k + A if sp is None else np.asarray(sp, dtype=complex)
    if np.any((k == A) | (kp == 0)):
        raise BranchPointProximity(f"k at a branch point +-{A}")
    on_cut = (k.imag == 0.0) & (np.abs(k.real) < A)
    if side is CutSide.OFF:
        if np.any(on_cut):
            raise BranchDomainError("the cut (-A, A) requires side=ABOVE or BELOW")
        # The cross-ratio avoids the negative real axis for k off [-A, A],
        # so the principal fourth root already carries the right branch.
        return f_array(k, A, kp), ((k - A) / kp) ** 0.25
    if not np.all(on_cut):
        raise BranchDomainError(f"side={side.value} only valid for real k in (-A, A)")
    sign = 1.0 if side is CutSide.ABOVE else -1.0
    x = k.real
    return sign * 1j * np.sqrt(A * A - x * x), ((A - x) / (A + x)) ** 0.25 * np.exp(
        sign * 0.25j * np.pi
    )


def f(k: complex, A: float, side: CutSide = CutSide.OFF) -> complex:
    """Square root (k^2 - A^2)^(1/2) with f(k) ~ k at infinity."""
    A = _check_amplitude(A)
    return complex(fw_array(_validate_horizontal(k, A, "f"), A, side)[0])


def w(k: complex, A: float, side: CutSide = CutSide.OFF) -> complex:
    """Fourth root ((k-A)/(k+A))^(1/4) with w(k) ~ 1 at infinity."""
    A = _check_amplitude(A)
    return complex(fw_array(_validate_horizontal(k, A, "w"), A, side)[1])


def h(k: complex, A: float) -> complex:
    """Square root (k^2 + A^2)^(1/2) with h(k) ~ k at infinity.

    Cut on the vertical segment [-iA, iA]; evaluation there (including
    k = 0) is a hard error -- no side convention is defined for h.
    """
    A = _check_amplitude(A)
    k = complex(k)
    if abs(k - 1j * A) <= _BRANCH_POINT_RTOL * A or abs(k + 1j * A) <= _BRANCH_POINT_RTOL * A:
        raise BranchPointError(f"h(k) requested at branch point, k={k}, A={A}")
    if k.real == 0.0 and abs(k.imag) < A:
        raise BranchDomainError(f"h(k) undefined on the cut [-iA, iA], k={k}")
    return complex(h_array(k, A))


def background_matrix(j: int, k: complex, A: float, side: CutSide = CutSide.OFF) -> np.ndarray:
    """Background eigenvector matrix E_j(k) built from w(k); det E_j = 1."""
    if j not in (1, 2):
        raise ValueError(f"j must be 1 or 2, got {j}")
    wk = w(k, A, side)
    e1 = 0.5 * (wk + 1.0 / wk)
    e2 = 0.5j * (wk - 1.0 / wk)
    if j == 1:
        return np.array([[e1, -e2], [e2, e1]], dtype=complex)
    return np.array([[e1, e2], [-e2, e1]], dtype=complex)
