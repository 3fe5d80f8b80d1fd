"""Branch-cut square roots: normalization, boundary values, domain errors."""

import math

import numpy as np
import pytest

from nnlstep import (
    BranchDomainError,
    BranchPointError,
    CutSide,
    Direction,
    SolitonSpec,
    StepProfile,
    background_matrix,
    f,
    h,
    q_soliton,
    soliton_spectral,
    w,
)
from nnlstep.branches import _check_amplitude


@pytest.mark.parametrize("A", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "make",
    [
        _check_amplitude,
        lambda A: StepProfile(A, 0.0),
        lambda A: SolitonSpec(A),
        lambda A: Direction(0.75, A),
        lambda A: soliton_spectral(A, 0.0),
        lambda A: q_soliton(A, 0.0, 0.5, 1.0),
    ],
    ids=["check", "StepProfile", "SolitonSpec", "Direction", "soliton_spectral", "q_soliton"],
)
def test_every_amplitude_check_refuses(make, A):
    # One check serves every constructor, and it refuses infinity too.
    with pytest.raises(ValueError, match="amplitude must be positive and finite"):
        make(A)


class TestF:
    def test_real_values_off_cut(self):
        assert f(2.0, 1.0) == pytest.approx(math.sqrt(3.0))
        assert f(-2.0, 1.0) == pytest.approx(-math.sqrt(3.0))

    def test_large_k_normalization(self):
        for k in (1e4, 1e4j, -3e3 + 4e3j):
            assert abs(f(k, 1.0) / k - 1.0) < 1e-6

    def test_boundary_values(self):
        x = 0.3
        above = f(x, 1.0, CutSide.ABOVE)
        below = f(x, 1.0, CutSide.BELOW)
        assert above == pytest.approx(1j * math.sqrt(1 - x * x))
        assert below == pytest.approx(np.conj(above))

    def test_boundary_matches_nontangential_limit(self):
        x = -0.4
        eps_val = f(x + 1e-9j, 1.0)
        assert abs(eps_val - f(x, 1.0, CutSide.ABOVE)) < 1e-8

    def test_schwarz_symmetry(self):
        k = 0.7 + 1.3j
        assert np.conj(f(np.conj(k), 1.0)) == pytest.approx(f(k, 1.0))

    def test_branch_point_is_hard_error(self):
        with pytest.raises(BranchPointError):
            f(1.0, 1.0)
        with pytest.raises(BranchPointError):
            f(-1.0 + 1e-16j, 1.0)

    def test_cut_requires_side(self):
        with pytest.raises(BranchDomainError):
            f(0.5, 1.0)

    def test_side_off_cut_rejected(self):
        with pytest.raises(BranchDomainError):
            f(2.0, 1.0, CutSide.ABOVE)

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            f(2.0, -1.0)


class TestW:
    def test_real_value(self):
        assert w(2.0, 1.0) == pytest.approx((1.0 / 3.0) ** 0.25)

    def test_large_k_normalization(self):
        assert abs(w(1e5 + 1e5j, 1.0) - 1.0) < 1e-4

    def test_boundary_phase(self):
        assert w(0.0, 1.0, CutSide.ABOVE) == pytest.approx(np.exp(1j * np.pi / 4))
        assert w(0.0, 1.0, CutSide.BELOW) == pytest.approx(np.exp(-1j * np.pi / 4))

    def test_boundary_matches_nontangential_limit(self):
        x = 0.2
        assert abs(w(x + 1e-10j, 1.0) - w(x, 1.0, CutSide.ABOVE)) < 1e-6

    def test_fourth_power(self):
        k = 1.5 + 0.8j
        assert w(k, 1.0) ** 4 == pytest.approx((k - 1.0) / (k + 1.0))


class TestH:
    def test_real_values(self):
        assert h(2.0, 1.0) == pytest.approx(math.sqrt(5.0))
        assert h(-2.0, 1.0) == pytest.approx(-math.sqrt(5.0))

    def test_imaginary_axis_outside_cut(self):
        # h ~ k forces h(2i) = i sqrt(3) for A = 1.
        assert h(2j, 1.0) == pytest.approx(1j * math.sqrt(3.0))

    def test_large_k_normalization(self):
        for k in (1e4, -1e4, 1e4j):
            assert abs(h(k, 1.0) / k - 1.0) < 1e-6

    def test_cut_is_hard_error(self):
        with pytest.raises(BranchDomainError):
            h(0.0, 1.0)
        with pytest.raises(BranchDomainError):
            h(0.5j, 1.0)

    def test_branch_point_is_hard_error(self):
        with pytest.raises(BranchPointError):
            h(1j, 1.0)


class TestLamAndBackground:
    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("k", [2.5, -1.4, 0.9 + 1.1j])
    def test_background_matrix_unimodular(self, j, k):
        E = background_matrix(j, k, 1.0)
        det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
        assert det == pytest.approx(1.0 + 0j, abs=1e-12)
