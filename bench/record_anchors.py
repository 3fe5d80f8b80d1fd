"""Record the values the benchmark's gates compare against (anchors.json).

    python3 bench/record_anchors.py

The committed anchors.json was recorded on the seed code, before any
optimisation; re-recording it on a later commit would let that commit's
numerical changes pass unchecked.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import nnlstep  # noqa: E402
import workloads as W  # noqa: E402

ANCHOR_RAYS = (0.6, -1.5, 3.0)


def solver_desk() -> dict:
    wl = W.WORKLOADS["solver_desk"]
    errs = []
    for phi0 in wl.PHI0_GRID:
        st = wl.setup({"phi0": phi0}, W.plain_api())
        last = nnlstep.evolve(st["field0"], st["cfg"], W.A)[-1]
        errs.append(float(np.max(np.abs(last.values - wl.exact(st)))))
    return {"phi0": list(wl.PHI0_GRID), "sup_err": errs}


def asym_rays() -> dict:
    out = {}
    for R in (-1.0, 0.7):
        sd = nnlstep.step_spectral(nnlstep.StepProfile(A=W.A, R=R))
        rep = nnlstep.check_assumptions(sd)
        dA = nnlstep.transition_params(sd).dA
        F_c = nnlstep.central_params(sd, 0.2).F_inf
        rays = []
        for xi in ANCHOR_RAYS:
            p = nnlstep.modulated_params(sd, xi)
            rays.append([xi, p.F_inf.real, p.F_inf.imag, p.error_exponent])
        out[f"R={R}"] = {
            "report": [rep.a1_winding, rep.passed, rep.endpoint_zero_at_minus_A],
            "winding_sup": rep.winding_sup,
            "dA": [dA.real, dA.imag],
            "central_F_inf": [F_c.real, F_c.imag],
            "rays": rays,
        }
    return out


def cli_compare() -> dict:
    wl = W.WORKLOADS["cli_compare"]
    workdir = ROOT / ".bench_runs" / "record-anchors"
    st = wl.setup(wl.inputs(None), W.plain_api())
    wl.prepare(st, {"cli_compare": {"rows": []}}, workdir)
    try:
        if nnlstep.cli.main(st["argv"]) != 0:
            raise SystemExit("compare failed")
        rows = W.read_error_table(st["out_dir"] / "error_table.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"rows": rows}


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore", nnlstep.GridTooCoarse)
    anchors = {"solver_desk": solver_desk(), "asym_rays": asym_rays(), "cli_compare": cli_compare()}
    (BENCH / "anchors.json").write_text(json.dumps(anchors, indent=1) + "\n")
