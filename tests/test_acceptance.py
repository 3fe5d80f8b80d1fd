"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured-output section) after all its assertions hold, so the run log
doubles as a sign-off sheet.  Desk-scale theorem checks (criteria 6-8)
share one direct simulation on a domain wide enough that boundary
reflections -- which travel at the discrete group-speed bound 2/dx --
cannot reach any measurement window before the final snapshot.
"""

import cmath
import json
import math
import time
import warnings

import numpy as np
import pytest

from nnlstep import (
    CutSide,
    F_at,
    F_infinity,
    F_plus_at_zero,
    Grid,
    InitialData,
    SimConfig,
    SolitonSpec,
    StepProfile,
    central_params,
    check_assumptions,
    delta_data,
    evolve,
    init_field,
    jost_spectral,
    modulated_params,
    q_central,
    q_modulated,
    q_soliton,
    q_transition,
    soliton_spectral,
    step_spectral,
    transition_dA,
    transition_params,
)

A = 1.0

# Discretization floors measured in a dx-refinement study (dx in
# {0.1, 0.05, 0.025}): on the dx = 0.05 grid used below, the solver's
# phase error in the plateau region saturates at ~1.3e-3 rad and the
# amplitude error at ~1e-6, both shrinking ~dx^2.  Asymptotic-in-t decay
# is only observable above these floors.
DX = 0.05
AMP_FLOOR = 5e-6
REL_FLOOR = 2e-3


def _report(num, text):
    print(f"CRITERION {num}: PASS - {text}")


@pytest.fixture(scope="module")
def step_sd():
    return step_spectral(StepProfile(A=A, R=0.0))


@pytest.fixture(scope="module")
def desk_run():
    """Shared direct simulation of the centered step for criteria 6-8.

    L = 1000 keeps boundary reflections (speed <= 2/dx = 40) out of every
    window: the farthest window point is x = 121 and the earliest return
    is t ~ (2L - 121 - 0)/40 > 45 > 40.
    """
    grid = Grid(L=1000.0, N=int(round(2000.0 / DX)))
    cfg = SimConfig(dt=0.2 * DX * DX, t_end=40.0, record_times=(10.0, 20.0, 30.0, 40.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fld = init_field(StepProfile(A=A, R=0.0), grid)
    return evolve(fld, cfg, A)


def test_criterion_1_closed_form_identities():
    start = time.perf_counter()
    for R in (-1.0, 0.0, 0.7):
        for amp in (0.5, 1.0, 2.0):
            sd = step_spectral(StepProfile(A=amp, R=R))
            ks = np.concatenate(
                [np.linspace(-15 * amp, -1.01 * amp, 50), np.linspace(1.01 * amp, 15 * amp, 50)]
            )
            for k in ks:
                k = float(k)
                res = (
                    sd.a1(k, CutSide.OFF) * sd.a2(k, CutSide.OFF)
                    + sd.b(k, CutSide.OFF) * np.conj(sd.b(-k, CutSide.OFF))
                    - 1.0
                )
                assert abs(res) < 1e-8
    sd0 = step_spectral(StepProfile(A=A, R=0.0))
    for R in (1e-8, -1e-8):
        sd = step_spectral(StepProfile(A=A, R=R))
        for k in np.linspace(1.05, 12.0, 20):
            k = complex(k)
            for fn, fn0 in ((sd.a1, sd0.a1), (sd.a2, sd0.a2), (sd.b, sd0.b)):
                v, v0 = fn(k, CutSide.OFF), fn0(k, CutSide.OFF)
                assert abs(v - v0) <= 1e-6 * max(1.0, abs(v0))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"determinant relation and R->0 limits hold ({elapsed:.2f}s < 1s)")


def test_criterion_2_jost_oracle_equivalence(step_sd):
    start = time.perf_counter()
    prof = StepProfile(A=A, R=0.0)
    data = InitialData(sampler=prof.sample, decay_width=1.0)
    ks = np.concatenate([np.linspace(-10.0, -1.1, 20), np.linspace(1.1, 10.0, 20)])
    nd = jost_spectral(data, A, k_samples=ks)
    worst = 0.0
    for k in ks:
        for fn_n, fn_c in ((nd.a1, step_sd.a1), (nd.a2, step_sd.a2), (nd.b, step_sd.b)):
            worst = max(worst, abs(fn_n(k, CutSide.OFF) - fn_c(k, CutSide.OFF)))
    assert worst < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"Jost integration matches closed forms to {worst:.1e} ({elapsed:.1f}s < 30s)")


def test_criterion_3_delta_F_machinery(step_sd):
    start = time.perf_counter()
    dd = delta_data(step_sd, -A)
    # Analytic dilogarithm value of the exponent integral (+pi^2/12),
    # giving delta(0,-A) = exp(-i pi/24).
    delta0 = dd.delta_at(0.0)
    assert abs(delta0 - cmath.exp(-1j * math.pi / 24)) < 1e-6
    # Jump residual delta_+ - delta_- (1 + r1 r2) on the ray.
    x0 = -2.0
    g = 1.0 - 1.0 / x0**2
    jump = dd.delta_boundary(x0, CutSide.ABOVE) - dd.delta_boundary(x0, CutSide.BELOW) * g
    assert abs(jump) < 1e-6
    # (k - k1)^{i nu} exponent at a modulated endpoint: the local-branch
    # coefficient ln g(k1)/(2 pi i) must equal i nu exactly.
    ddm = delta_data(step_sd, -1.2)
    lng = math.log(1.0 - 1.0 / 1.44)
    assert abs(lng / (2j * math.pi) - 1j * ddm.nu) < 1e-6
    # F_+ F_- = delta^2 on the cut.
    xc = -0.3
    prod = F_at(step_sd, dd, xc, CutSide.ABOVE) * F_at(step_sd, dd, xc, CutSide.BELOW)
    assert abs(prod - dd.delta_at(xc) ** 2) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"delta(0,-A)=e^(-i pi/24), jump/exponent/product residuals < 1e-6 ({elapsed:.1f}s)")


def test_criterion_4_reflectionless_reduction():
    worst = 0.0
    for phi0 in (0.0, 0.8, -1.3):
        sd = soliton_spectral(A, phi0)
        assert F_infinity(sd, -A) == 0.0
        assert abs(transition_dA(sd) - 2.0 * A * cmath.exp(1j * phi0)) < 1e-12
        for t in (5.0, 25.0):
            worst = max(
                worst,
                abs(q_modulated(sd, 0.9, t) - q_soliton(A, phi0, 4 * 0.9 * t, t)),
                abs(q_central(sd, 0.2, 8 * t) - q_soliton(A, phi0, 4 * 0.2 * 8 * t, 8 * t)),
            )
            for x in (0.7, -1.1, 3.0):
                worst = max(worst, abs(q_transition(sd, x, t) - q_soliton(A, phi0, x, t)))
    assert worst < 1e-10
    _report(4, f"all evaluators collapse to the exact soliton (max dev {worst:.1e} < 1e-10)")


@pytest.mark.slow
def test_criterion_5_solver_regression():
    start = time.perf_counter()
    # Golden threshold 3.5e-4: the measured sup error of this exact run is
    # 1.675e-4, frozen with 2x headroom from the convergence study.
    grid = Grid(L=20.0, N=2000)
    cfg = SimConfig(dt=2e-5, t_end=1.0, record_times=(1.0,))
    snaps = evolve(init_field(SolitonSpec(A=A), grid), cfg, A)
    exact = np.array([q_soliton(A, 0.0, x, snaps[-1].t) for x in grid.x])
    sup = float(np.max(np.abs(snaps[-1].values - exact)))
    assert sup < 3.5e-4

    # Spatial refinement slope (order 2 +- 0.3).
    sups = []
    for N in (500, 1000, 2000):
        g = Grid(L=20.0, N=N)
        c = SimConfig(dt=2e-5, t_end=0.1, record_times=(0.1,))
        s = evolve(init_field(SolitonSpec(A=A), g), c, A)
        ex = np.array([q_soliton(A, 0.0, x, s[-1].t) for x in g.x])
        sups.append(float(np.max(np.abs(s[-1].values - ex))))
    slopes_x = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    assert all(abs(s - 2.0) < 0.3 for s in slopes_x)

    # Temporal refinement slope (order 4 +- 0.3) via a Richardson
    # reference at dt = 6.25e-5 on a fixed coarse grid.
    g = Grid(L=20.0, N=400)

    def final(dt):
        c = SimConfig(dt=dt, t_end=0.5, record_times=(0.5,), cfl_coeff=1.0)
        return evolve(init_field(SolitonSpec(A=A), g), c, A)[-1].values

    ref = final(6.25e-5)
    errs_t = [float(np.max(np.abs(final(dt) - ref))) for dt in (2e-3, 1e-3, 5e-4)]
    slopes_t = [math.log2(errs_t[i] / errs_t[i + 1]) for i in range(2)]
    assert all(abs(s - 4.0) < 0.3 for s in slopes_t)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        5,
        f"golden sup {sup:.3e} < 3.5e-4; orders dx {slopes_x[0]:.2f}/{slopes_x[1]:.2f}, "
        f"dt {slopes_t[0]:.2f}/{slopes_t[1]:.2f} ({elapsed:.0f}s < 5min)",
    )


@pytest.mark.slow
def test_criterion_6_central_region(step_sd, desk_run):
    cp = central_params(step_sd, 0.2)
    assert abs(cp.F_inf.imag) < 1e-9
    amp_errs, phase_err_40 = [], None
    for fld in desk_run:
        t = fld.t
        x = fld.grid.x
        mask = (x >= 0.4 * t) & (x <= 1.2 * t)  # window xi in [0.1, 0.3]
        qn = fld.values[mask]
        amp_errs.append(float(np.max(np.abs(np.abs(qn) - A))))
        if round(t) == 40:
            pred = q_central(step_sd, 0.2, t, params=cp)
            phase_err_40 = float(np.max(np.abs(np.angle(qn / pred))))
    # Monotone decay; ratios certify super-algebraic decay until the
    # error reaches the solver's amplitude floor.
    assert all(amp_errs[i + 1] < amp_errs[i] for i in range(3))
    for i in range(3):
        assert amp_errs[i + 1] < 0.5 * amp_errs[i] or amp_errs[i + 1] < AMP_FLOOR
    assert amp_errs[1] < 0.5 * amp_errs[0]  # at least one genuine halving
    assert phase_err_40 < 0.05
    _report(
        6,
        f"|q| -> A with errors {['%.1e' % e for e in amp_errs]} "
        f"(floor {AMP_FLOOR:.0e}); phase at t=40 off by {phase_err_40:.1e} < 0.05 rad",
    )


@pytest.mark.slow
def test_criterion_7_modulated_region(step_sd, desk_run):
    xi0 = 0.75
    errs = []
    for fld in desk_run:
        t = fld.t
        if round(t) == 30:
            continue  # the criterion samples t in {10, 20, 40}
        x = fld.grid.x
        mask = (x >= 4 * xi0 * t - 0.5) & (x <= 4 * xi0 * t + 0.5)
        cache = {}
        sup = 0.0
        for x_pt, qn in zip(x[mask], fld.values[mask]):
            xi = x_pt / (4.0 * t)
            key = round(xi, 6)
            if key not in cache:
                cache[key] = modulated_params(step_sd, xi)
            sup = max(sup, abs(qn - q_modulated(step_sd, xi, t, params=cache[key])))
        errs.append((t, sup))
    slope = float(
        np.polyfit(np.log([t for t, _ in errs]), np.log([s for _, s in errs]), 1)[0]
    )
    assert abs(slope + 0.5) < 0.15
    _report(7, f"|q_num - q_asym| decays with fitted exponent {slope:.3f} = -0.5 +- 0.15")


@pytest.mark.slow
def test_criterion_8_transition_profile(step_sd, desk_run):
    tp = transition_params(step_sd)
    assert abs(tp.dA - (-2j * A)) < 1e-6
    rel = {}
    for fld in desk_run:
        t = round(fld.t)
        if t not in (20, 40):
            continue
        for xs in (-1.0, -0.5, 0.5, 1.0):
            idx = int(round((xs + fld.grid.L) / fld.grid.dx))
            qa = q_transition(step_sd, xs, fld.t, params=tp)
            rel[(t, xs)] = abs(fld.values[idx] - qa) / abs(qa)
    for xs in (-1.0, -0.5, 0.5, 1.0):
        assert rel[(40, xs)] < 0.05
        # Decreasing in t, up to the solver's relative-error floor.
        assert rel[(40, xs)] < rel[(20, xs)] or rel[(40, xs)] < REL_FLOOR
    worst = max(rel.values())
    _report(8, f"station profiles match to {worst:.1e} relative (< 5%) at t=40")


def test_criterion_9_matching_structure(step_sd):
    # Main-term continuity across |xi| = A/2: the modulated constant
    # F_inf(k1(xi)) approaches F_inf(-A) like sqrt(eps) ln(eps).
    t = 5.0
    qc = q_central(step_sd, 0.3, t)
    qm = q_modulated(step_sd, 0.5 + 1e-8, t)
    assert abs(qm - qc) < 1e-3 * A
    qc_m = q_central(step_sd, -0.3, t)
    qm_m = q_modulated(step_sd, -0.5 - 1e-8, t)
    assert abs(qm_m - qc_m) < 1e-3 * A
    # x -> +-inf limits of the transition profile equal the central constants.
    tp = transition_params(step_sd)
    lim_p = abs(q_transition(step_sd, 25.0, t, params=tp) - qc)
    lim_m = abs(q_transition(step_sd, -25.0, t, params=tp) - qc_m)
    assert lim_p < 1e-6 and lim_m < 1e-6
    _report(
        9,
        f"continuity across |xi|=A/2 to {abs(qm - qc):.1e} (< 1e-3 A); "
        f"transition limits match central constants to {max(lim_p, lim_m):.1e}",
    )


def test_criterion_10_assumptions_report(step_sd):
    rep = check_assumptions(step_sd)
    assert rep.a1_winding == 0
    assert rep.simple_zero_at_origin
    assert abs(rep.a10 - (-1j / A)) < 1e-6
    assert rep.winding_sup < 1e-9  # Delta identically zero on the ray
    assert rep.endpoint_zero_at_minus_A
    assert rep.passed
    _report(
        10,
        "winding 0, simple zero at origin with a10 = -i/A, Delta = 0, "
        "endpoint zero at -A detected",
    )
