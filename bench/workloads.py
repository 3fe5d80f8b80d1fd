"""The four benchmark workloads: seeded inputs, set-up, one round, gates.

Each workload is a closed loop with one caller: a round issues its calls
into the package one after another, and the runner (``run.py``) starts
the next round when the previous one returns.  A round always does the
same fixed amount of work (steps, rays, k samples), so its cost does not
depend on the seed; the seed only draws the inputs.

The program is reached only through the ``api`` namespace passed to
``round`` (see ``plain_api``), so that the traced run can substitute
span-recording wrappers without touching the package.

This module imports the package at import time on purpose: the runner
starts the set-up clock before importing it, so ``setup_s`` includes
the import of nnlstep, NumPy and SciPy that every user of the package
pays.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

import nnlstep
import yardstick as Y
from nnlstep import cli as nnlstep_cli
from nnlstep.branches import CutSide

A = 1.0
ANCHORS_PATH = Path(__file__).resolve().parent / "anchors.json"


def plain_api() -> SimpleNamespace:
    """The public package functions the workloads call, unwrapped."""
    return SimpleNamespace(
        init_field=nnlstep.init_field,
        evolve=nnlstep.evolve,
        step_spectral=nnlstep.step_spectral,
        check_assumptions=nnlstep.check_assumptions,
        transition_params=nnlstep.transition_params,
        central_params=nnlstep.central_params,
        modulated_params=nnlstep.modulated_params,
        q_modulated=nnlstep.q_modulated,
        jost_spectral=nnlstep.jost_spectral,
        reflection=nnlstep.reflection,
        cli_main=nnlstep_cli.main,
    )


def load_anchors() -> dict:
    """Values recorded from the seed code by ``record_anchors.py``."""
    return json.loads(ANCHORS_PATH.read_text())


@dataclass
class Round:
    """Outcome of one round: ops done, per-op latencies, failures.

    ``scaled_s`` holds each latency scaled by the yardstick ticked right
    after it; a workload that does not tick between ops leaves it empty
    and the runner scales the latencies by the round's yardstick.
    """

    ops: int = 0
    attempted: int = 0
    latencies_s: list = field(default_factory=list)
    scaled_s: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    output: object = None

    def fail(self, label: str, message: str) -> None:
        self.failures.setdefault(label, message)


def _close(a: complex, b: complex, tol: float) -> bool:
    return cmath.isfinite(complex(a)) and abs(complex(a) - complex(b)) <= tol


# ---------------------------------------------------------------------------
# solver_desk
# ---------------------------------------------------------------------------


class SolverDesk:
    """``evolve`` on the desk grid of criteria 6-8, from a seeded soliton.

    Every round restarts from the same initial field and takes STEPS RK4
    steps, so the exact one-soliton profile is the reference for each
    round and the rounds do identical work.
    """

    name = "solver_desk"
    op = "RK4 step on the 40001-point desk grid"
    L, N, DT, STEPS = 1000.0, 40000, 5e-4, 20
    # phi0 is drawn from this grid so that each value has a seed-recorded
    # error to gate against; the error ranges over three decades because
    # phi0 -> 1 steepens the profile at x = 0 on the fixed dx = 0.05 grid.
    PHI0_GRID = tuple(round(-1.0 + 0.1 * j, 10) for j in range(21))
    ERR_FACTOR = 1.5
    YARDSTICK_REF_S = 0.021  # 3 RK4 steps of the yardstick on the desk grid

    def inputs(self, rng) -> dict:
        return {"phi0": self.PHI0_GRID[int(rng.integers(len(self.PHI0_GRID)))]}

    def setup(self, inp, api) -> dict:
        grid = nnlstep.Grid(L=self.L, N=self.N)
        t_end = self.STEPS * self.DT
        cfg = nnlstep.SimConfig(dt=self.DT, t_end=t_end, record_times=(t_end,))
        field0 = api.init_field(nnlstep.SolitonSpec(A=A, phi0=inp["phi0"]), grid)
        return {"grid": grid, "cfg": cfg, "field0": field0, "phi0": inp["phi0"]}

    STEP_TOL = 1e-9

    @staticmethod
    def exact(st, t=None) -> np.ndarray:
        """One-soliton A e^{-2iA^2 t} tanh(Ax - i phi0/2 - i pi/4), at t_end by default."""
        t = st["cfg"].t_end if t is None else t
        z = A * st["grid"].x - 0.5j * st["phi0"] - 0.25j * np.pi
        return A * np.exp(-2j * A * A * t) * np.tanh(z)

    def rk4_reference(self, q: np.ndarray, dx: float) -> np.ndarray:
        """STEPS classic RK4 steps of the semi-discrete system nnls_sim documents.

        The soliton gate cannot see time-stepping errors (the dx^2 error
        dominates it); this one holds ``evolve`` to the same arithmetic up
        to rounding.
        """
        return Y.rk4(q, dx, self.DT, self.STEPS)

    def yardstick(self, st) -> Y.Yardstick:
        q0, dx = self.exact(st, 0.0), st["grid"].dx
        return Y.Yardstick(lambda: Y.rk4(q0, dx, self.DT, 3), self.YARDSTICK_REF_S)

    def prepare(self, st, anchors, workdir) -> None:
        q0 = self.exact(st, 0.0)
        st["init_err"] = float(np.max(np.abs(st["field0"].values - q0)))
        st["exact"] = self.exact(st)
        st["rk4"] = self.rk4_reference(q0, st["grid"].dx)
        j = self.PHI0_GRID.index(st["phi0"])
        st["err_limit"] = self.ERR_FACTOR * anchors[self.name]["sup_err"][j]
        st["sup_err"] = 0.0

    def round(self, api, st, tick) -> Round:
        rnd = Round(attempted=1)
        t0 = time.perf_counter()
        snaps = api.evolve(st["field0"], st["cfg"], A)
        rnd.latencies_s.append((time.perf_counter() - t0) / self.STEPS)
        rnd.ops = self.STEPS
        rnd.output = snaps
        return rnd

    def check(self, st, rnd) -> None:
        last = rnd.output[-1]
        if abs(last.t - st["cfg"].t_end) > 1e-12:
            rnd.fail("evolve", f"final time {last.t} != {st['cfg'].t_end}")
            return
        err = float(np.max(np.abs(last.values - st["exact"])))
        st["sup_err"] = max(st["sup_err"], err)
        if not err <= st["err_limit"]:
            rnd.fail("evolve", f"sup |q - q_soliton| = {err:.3e} > {st['err_limit']:.3e}")
        step_err = float(np.max(np.abs(last.values - st["rk4"])))
        if not step_err <= self.STEP_TOL:
            rnd.fail("evolve", f"sup |q - q_rk4| = {step_err:.3e} > {self.STEP_TOL:.0e}")

    def final_checks(self, st) -> Round:
        rnd = Round(attempted=1)
        if not st["init_err"] <= 1e-12:
            rnd.fail("init_field", f"sup |q0 - soliton| = {st['init_err']:.3e}")
        return rnd

    def report(self, st, ops_per_s, p50_ms, p90_ms) -> dict:
        return {
            "point_steps_per_s": (ops_per_s * (self.N + 1), "1/s"),
            "sup_err": (st["sup_err"], "-"),
        }


# ---------------------------------------------------------------------------
# asym_rays
# ---------------------------------------------------------------------------


def _k1(xi: float) -> float:
    """Stationary point k1 < -A of the phase for the ray |xi|."""
    axi = abs(xi)
    return -0.5 * (axi + math.sqrt(axi * axi + 2.0 * A * A))


def f_inf_centered(k1: float) -> float:
    """Independent F_inf(k1) of the centered step (R = 0).

    There 1 + r1 r2 = 1 - A^2/s^2 > 0 on s < -A, so the winding vanishes
    and s = -A cosh u turns the defining integral into
    (1/pi) int_{arccosh(|k1|/A)}^inf ln tanh u du.
    """
    u1 = math.acosh(abs(k1) / A)
    val, _ = quad(
        lambda u: math.log(math.tanh(u)), u1, math.inf, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return val / math.pi


def plane_wave(F: complex, t: float, positive: bool) -> complex:
    phase = cmath.exp(-2j * (A * A * t - F.real))
    if positive:
        return A * math.exp(-2.0 * F.imag) * phase
    return -A * math.exp(2.0 * F.imag) * phase


class AsymRays:
    """Riemann-Hilbert evaluators on fresh closed-form step data.

    Each round rebuilds ``step_spectral`` for every R, so the package's
    module-level ``lru_cache``s never carry a hit from one round to the
    next; within a round ``central_params`` legitimately reuses the
    F_inf(-A) that ``transition_params`` computed.
    """

    name = "asym_rays"
    op = "modulated_params + q_modulated on one ray"
    R_SET = (-1.0, 0.0, 0.7)
    RAYS_PER_R = 34
    XI_LO, XI_HI = 0.5 * A, 5.0 * A
    F_TOL = 1e-8  # the package's default quadrature tolerance
    CENTRAL_TOL = 1e-7
    DA_TOL = 1e-6
    ANCHOR_TOL = 1e-7

    def inputs(self, rng) -> dict:
        # One ray per stratum of (A/2, 5A), jittered inside the stratum and
        # kept off its edges, so the spread of |xi| (which sets the cost of
        # a ray) is the same for every seed.
        n = self.RAYS_PER_R
        width = (self.XI_HI - self.XI_LO) / n
        rays = {}
        for R in self.R_SET:
            u = rng.random(n)
            mag = self.XI_LO + (np.arange(n) + 0.05 + 0.9 * u) * width
            sign = rng.choice([-1.0, 1.0], size=n)
            ts = rng.uniform(5.0, 50.0, size=n)
            rays[R] = [(float(s * m), float(t)) for s, m, t in zip(sign, mag, ts)]
        return {"rays": rays}

    def setup(self, inp, api) -> dict:
        return {"rays": inp["rays"]}

    def yardstick(self, st) -> Y.Yardstick:
        return Y.Yardstick(Y.quad_unit, Y.QUAD_REF_S)

    def prepare(self, st, anchors, workdir) -> None:
        st["anchors"] = anchors[self.name]
        st["F_ref"] = {xi: f_inf_centered(_k1(xi)) for xi, _ in st["rays"][0.0]}
        st["sup_err"] = 0.0

    def round(self, api, st, tick) -> Round:
        rnd = Round()
        out = {}
        for R in self.R_SET:
            res = {"rays": []}
            out[R] = res
            rnd.attempted += 5
            try:
                sd = api.step_spectral(nnlstep.StepProfile(A=A, R=R))
                res["report"] = api.check_assumptions(sd)
                res["transition"] = api.transition_params(sd)
                res["central"] = [api.central_params(sd, xi) for xi in (0.2, -0.2)]
            except Exception as exc:  # count it and go on with the next R
                rnd.fail(f"R={R} setup", repr(exc))
                continue
            finally:
                tick()
            for xi, t in st["rays"][R]:
                rnd.attempted += 1
                t0 = time.perf_counter()
                try:
                    p = api.modulated_params(sd, xi)
                    q = api.q_modulated(sd, xi, t, params=p)
                except Exception as exc:
                    rnd.fail(f"R={R} xi={xi}", repr(exc))
                    tick()
                    continue
                lat = time.perf_counter() - t0
                rnd.latencies_s.append(lat)
                rnd.scaled_s.append(lat * tick())
                rnd.ops += 1
                res["rays"].append((xi, t, p, q))
        rnd.output = out
        return rnd

    def check(self, st, rnd) -> None:
        for R, res in rnd.output.items():
            if "central" not in res:
                continue
            rep, tp, cps = res["report"], res["transition"], res["central"]
            label = f"R={R} setup"
            if R == 0.0:
                if not (rep.passed and rep.endpoint_zero_at_minus_A and rep.a1_winding == 0
                        and rep.winding_sup < 1e-9):
                    rnd.fail(label, f"assumption report differs from criterion 10: {rep}")
                if not _close(tp.dA, -2j * A, self.DA_TOL):
                    rnd.fail(label, f"d(A) = {tp.dA}, expected -2i")
                for cp in cps:
                    if not _close(cp.F_inf, -math.pi / 8, self.CENTRAL_TOL):
                        rnd.fail(label, f"central F_inf = {cp.F_inf}, expected -pi/8")
            else:
                anc = st["anchors"][f"R={R}"]
                got = [rep.a1_winding, rep.passed, rep.endpoint_zero_at_minus_A]
                if got != anc["report"] or abs(rep.winding_sup - anc["winding_sup"]) > 1e-7:
                    rnd.fail(label, f"assumption report {got}, {rep.winding_sup} != seed {anc}")
                if not _close(tp.dA, complex(*anc["dA"]), self.DA_TOL):
                    rnd.fail(label, f"d(A) = {tp.dA} != seed {anc['dA']}")
                for cp in cps:
                    if not _close(cp.F_inf, complex(*anc["central_F_inf"]), self.ANCHOR_TOL):
                        rnd.fail(label, f"central F_inf = {cp.F_inf} != seed")
            for xi, t, p, q in res["rays"]:
                label = f"R={R} xi={xi}"
                if not (0.0 < p.error_exponent <= 0.5 and cmath.isfinite(q)):
                    rnd.fail(label, f"exponent {p.error_exponent}, q = {q}")
                if R == 0.0:
                    F_ref = st["F_ref"][xi]
                    err = abs(p.F_inf - F_ref)
                    st["sup_err"] = max(st["sup_err"], err)
                    q_ref = plane_wave(complex(F_ref), t, xi > 0)
                    if not (err <= self.F_TOL and _close(q, q_ref, 10 * self.F_TOL)):
                        rnd.fail(label, f"F_inf {p.F_inf} vs reference {F_ref}")

    def final_checks(self, st) -> Round:
        """Once-per-run gates on quantities the rounds do not produce."""
        rnd = Round()
        sd0 = nnlstep.step_spectral(nnlstep.StepProfile(A=A, R=0.0))
        rnd.attempted += 1
        d0 = nnlstep.delta_data(sd0, -A).delta_at(0.0)
        if not _close(d0, cmath.exp(-1j * math.pi / 24), 1e-6):
            rnd.fail("delta(0,-A)", f"{d0}, expected exp(-i pi/24)")
        # Criterion 9: main-term continuity across |xi| = A/2.
        for s in (1.0, -1.0):
            rnd.attempted += 1
            qc = nnlstep.q_central(sd0, 0.3 * s, 5.0)
            qm = nnlstep.q_modulated(sd0, s * (0.5 + 1e-8), 5.0)
            if not abs(qm - qc) < 1e-3 * A:
                rnd.fail(f"continuity sign {s}", f"|q_mod - q_cen| = {abs(qm - qc):.3e}")
        for R in (-1.0, 0.7):
            sd = nnlstep.step_spectral(nnlstep.StepProfile(A=A, R=R))
            for xi, re, im, expo in st["anchors"][f"R={R}"]["rays"]:
                rnd.attempted += 1
                p = nnlstep.modulated_params(sd, xi)
                if not (_close(p.F_inf, complex(re, im), self.ANCHOR_TOL)
                        and abs(p.error_exponent - expo) <= self.ANCHOR_TOL):
                    rnd.fail(f"anchor R={R} xi={xi}", f"{p.F_inf}, {p.error_exponent}")
        return rnd

    def report(self, st, ops_per_s, p50_ms, p90_ms) -> dict:
        return {
            "rays_per_s": (ops_per_s, "1/s"),
            "ray_ms_p50": (p50_ms, "ms"),
            "ray_ms_p90": (p90_ms, "ms"),
            "sup_err": (st["sup_err"], "-"),
        }


# ---------------------------------------------------------------------------
# cli_compare
# ---------------------------------------------------------------------------


class CliCompare:
    """``nnlstep compare --predictor modulated`` called in process.

    Centered step (R = 0.7 blows up at t ~ 1.44), dx = 0.05 on L = 80.
    The window [5.5, 7.5] lies in the modulated sector at both record
    times (lo > 2 A t_max = 5), and boundary reflections cannot reach it
    before t ~ 3.8 > t_end.  41 window points x 2 record times give 82
    predictor calls, each a fresh ``modulated_params``.
    """

    name = "cli_compare"
    op = "one in-process `nnlstep compare` call"
    CONFIG = {
        "A": A, "L": 80.0, "N": 3200, "dt": 5e-4, "t_end": 2.5,
        "record_times": [1.25, 2.5],
        "initial": {"kind": "step", "R": 0.0},
    }
    WINDOW = "5.5:7.5"
    REL_TOL = 1e-6

    def inputs(self, rng) -> dict:
        return {"config": dict(self.CONFIG)}

    def setup(self, inp, api) -> dict:
        return {"config": inp["config"]}

    # About the round's 60/40 split: small-grid RK4 steps, then
    # small-array quadratures.
    YARDSTICK_REF_S = 0.14
    YARDSTICK_U = tuple(np.linspace(0.05, 2.0, 240))

    def yardstick(self, st) -> Y.Yardstick:
        cfg = self.CONFIG
        dx = 2.0 * cfg["L"] / cfg["N"]
        q0 = np.tanh(np.linspace(-cfg["L"], cfg["L"], cfg["N"] + 1)).astype(complex)

        def unit():
            Y.rk4(q0, dx, cfg["dt"], 300)
            for u in self.YARDSTICK_U:
                Y.ln_tanh_integral(u)

        return Y.Yardstick(unit, self.YARDSTICK_REF_S)

    def prepare(self, st, anchors, workdir) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = workdir / "sim.json"
        cfg_path.write_text(json.dumps(st["config"]))
        st["out_dir"] = workdir / "out"
        st["argv"] = [
            "compare", "--config", str(cfg_path), "--predictor", "modulated",
            "--window", self.WINDOW, "--out-dir", str(st["out_dir"]),
        ]
        st["seed_rows"] = anchors[self.name]["rows"]
        st["sup_err"] = 0.0

    def round(self, api, st, tick) -> Round:
        rnd = Round(attempted=1)
        t0 = time.perf_counter()
        rc = api.cli_main(st["argv"])
        rnd.latencies_s.append(time.perf_counter() - t0)
        rnd.ops = 1
        rnd.output = rc
        return rnd

    def check(self, st, rnd) -> None:
        if rnd.output != 0:
            rnd.fail("compare", f"exit code {rnd.output}")
            return
        rnd.counts["cli.artifact_bytes"] = sum(p.stat().st_size for p in st["out_dir"].iterdir())
        rows = read_error_table(st["out_dir"] / "error_table.csv")
        seed = st["seed_rows"]
        if len(rows) != len(self.CONFIG["record_times"]) or len(rows) != len(seed):
            rnd.fail("compare", f"{len(rows)} rows, expected {len(seed)}")
            return
        for row, ref in zip(rows, seed):
            if not all(math.isfinite(v) for v in row):
                rnd.fail("compare", f"non-finite row {row}")
                return
            rel = max(abs(a - b) / max(abs(b), 1e-300) for a, b in zip(row[:3], ref[:3]))
            rel = max(rel, abs(row[3] - ref[3]))
            st["sup_err"] = max(st["sup_err"], rel)
            if rel > self.REL_TOL:
                rnd.fail("compare", f"row {row} differs from seed {ref} by {rel:.2e}")

    def final_checks(self, st) -> Round:
        return Round()

    def report(self, st, ops_per_s, p50_ms, p90_ms) -> dict:
        return {"sup_err": (st["sup_err"], "-")}


def read_error_table(path: Path) -> list:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(c) for c in row] for row in reader]


# ---------------------------------------------------------------------------
# jost_table
# ---------------------------------------------------------------------------


def step_sampler(x: float) -> complex:
    """Pure centered step, owned by the benchmark (value 0 at the jump)."""
    if x > 0.0:
        return A
    if x < 0.0:
        return -A
    return 0.0


class JostTable:
    """``jost_spectral`` + ``reflection`` on a seeded symmetric k-grid.

    The grid holds +-k for each drawn k, so every b(-k) that
    ``reflection`` needs is an integrated sample rather than a spline
    value, and the number of ODE solves is the same for every seed.
    """

    name = "jost_table"
    op = "one k sample of jost_spectral + reflection"
    K_PER_SIDE = 8
    K_LO, K_HI = 1.1 * A, 10.0 * A
    TOL = 1e-5  # criterion 2

    def inputs(self, rng) -> dict:
        n = self.K_PER_SIDE
        width = (self.K_HI - self.K_LO) / n
        pos = self.K_LO + (np.arange(n) + 0.05 + 0.9 * rng.random(n)) * width
        ks = np.concatenate([-pos[::-1], pos])
        return {"ks": [float(k) for k in ks]}

    def setup(self, inp, api) -> dict:
        data = nnlstep.InitialData(sampler=step_sampler, decay_width=1.0)
        return {"ks": inp["ks"], "data": data}

    YARDSTICK_REF_S = 0.25  # 32 DOP853 solves of a constant-q Zakharov-Shabat system
    YARDSTICK_K = tuple(np.linspace(-10.0, 10.0, 32))

    def yardstick(self, st) -> Y.Yardstick:
        return Y.Yardstick(lambda: [Y.zs_solve(k) for k in self.YARDSTICK_K],
                           self.YARDSTICK_REF_S)

    def prepare(self, st, anchors, workdir) -> None:
        sd = nnlstep.step_spectral(nnlstep.StepProfile(A=A, R=0.0))
        st["closed"] = [
            (sd.a1(k, CutSide.OFF), sd.a2(k, CutSide.OFF), sd.b(k, CutSide.OFF))
            + nnlstep.reflection(sd, k)
            for k in st["ks"]
        ]
        st["sup_err"] = 0.0

    def round(self, api, st, tick) -> Round:
        rnd = Round(attempted=1 + len(st["ks"]))
        t0 = time.perf_counter()
        nd = api.jost_spectral(st["data"], A, st["ks"])
        refl = [api.reflection(nd, k) for k in st["ks"]]
        rnd.latencies_s.append((time.perf_counter() - t0) / len(st["ks"]))
        rnd.ops = len(st["ks"])
        rnd.output = (nd, refl)
        return rnd

    def check(self, st, rnd) -> None:
        nd, refl = rnd.output
        for k, ref, r in zip(st["ks"], st["closed"], refl):
            got = (nd.a1(k, CutSide.OFF), nd.a2(k, CutSide.OFF), nd.b(k, CutSide.OFF)) + r
            err = max(abs(complex(g) - complex(c)) for g, c in zip(got, ref))
            st["sup_err"] = max(st["sup_err"], err)
            if not err < self.TOL:
                rnd.fail(f"k={k}", f"Jost vs closed form differs by {err:.2e}")

    def final_checks(self, st) -> Round:
        return Round()

    def report(self, st, ops_per_s, p50_ms, p90_ms) -> dict:
        return {"k_per_s": (ops_per_s, "1/s"), "sup_err": (st["sup_err"], "-")}


WORKLOADS = {wl.name: wl for wl in (SolverDesk(), AsymRays(), CliCompare(), JostTable())}


def make_inputs(name: str, seed: int) -> dict:
    return WORKLOADS[name].inputs(np.random.default_rng(seed))
