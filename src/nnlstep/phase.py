"""Phase function of the oscillatory reconstruction and region geometry.

The large-time behavior along a ray x = 4 xi t is controlled by
theta(k, xi) = 4 xi f(k) + 2 k f(k), its two real critical points, and
the sign of Im theta.  The space-time plane splits into modulated wave
sectors (|xi| > A/2), central plateau sectors (0 < |xi| < A/2), and the
transition strip around x = 0; evaluation exactly on a sector boundary
is refused by the asymptotic evaluators, so classification returns a
dedicated Boundary tag there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .branches import CutSide, _check_amplitude, f, f_array


@dataclass(frozen=True)
class Direction:
    """A space-time ray xi = x / (4t) at amplitude A (t > 0 by convention)."""

    xi: float
    A: float

    def __post_init__(self):
        _check_amplitude(self.A)
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")


class RegionTag(enum.Enum):
    MODULATED_PLUS = "ModulatedPlus"
    MODULATED_MINUS = "ModulatedMinus"
    CENTRAL_PLUS = "CentralPlus"
    CENTRAL_MINUS = "CentralMinus"
    TRANSITION_AXIS = "TransitionAxis"
    BOUNDARY = "Boundary"


def theta(k: complex, d: Direction, side: CutSide = CutSide.OFF) -> complex:
    """theta(k, xi) = (4 xi + 2k) f(k); side-consistent on the cut, where
    the two boundary values are opposite: theta_+ = -theta_-."""
    fk = f(k, d.A, side)
    return (4.0 * d.xi + 2.0 * k) * fk


def critical_points(d: Direction) -> tuple[float, float]:
    """The two real zeros k1 < -A <= 0 < k2 of d theta / dk, for xi >= 0."""
    if d.xi < 0:
        raise ValueError("critical_points requires xi >= 0; use x -> -x symmetry")
    root = math.sqrt(d.xi * d.xi + 2.0 * d.A * d.A)
    return -0.5 * (d.xi + root), -0.5 * (d.xi - root)


def classify(d: Direction) -> RegionTag:
    """Region of the ray xi: thresholds at |xi| = 0 and |xi| = A/2."""
    half = 0.5 * d.A
    axi = abs(d.xi)
    if axi == 0.0 or axi == half:
        # xi = 0 is tagged Boundary: the transition strip is a statement
        # about fixed x, t -> inf, not about the ray xi = 0 itself.
        return RegionTag.BOUNDARY
    if axi > half:
        return RegionTag.MODULATED_PLUS if d.xi > 0 else RegionTag.MODULATED_MINUS
    return RegionTag.CENTRAL_PLUS if d.xi > 0 else RegionTag.CENTRAL_MINUS


def signature_table(
    d: Direction, n_re: int = 401, n_im: int = 401
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled sign of Im theta over the box |Re k| <= 2A + 2|xi|,
    |Im k| <= 2A, for plotting.

    Returns (k_re, k_im, sign) with sign in {-1, 0, 1}. The grid is offset
    by half a pixel vertically so no sample lands on the cut.
    """
    A, xi = d.A, d.xi
    w = 2.0 * A + 2.0 * abs(xi)
    re = np.linspace(-w, w, n_re)
    im = np.linspace(-2.0 * A, 2.0 * A, n_im)
    if np.any(im == 0.0):
        im = im + 0.5 * (im[1] - im[0])
    K = re[None, :] + 1j * im[:, None]
    # No grid point lies on the cut by construction.
    im_theta = np.imag((4.0 * xi + 2.0 * K) * f_array(K, A))
    return re, im, np.sign(im_theta).astype(int)
