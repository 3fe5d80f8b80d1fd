"""The benchmark's correctness gates, run once per workload.

One seeded round of each workload in ``bench/workloads.py``, then its
``check`` and ``final_checks``: the anchors and reference gates the
benchmark applies to every run.  No timing is taken.
"""

import importlib
import sys
from pathlib import Path

import pytest

import nnlstep

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.filterwarnings("ignore:initial datum jumps")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_every_gate(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    api = workloads.plain_api()
    st = wl.setup(workloads.make_inputs(name, SEED), api)
    wl.prepare(st, workloads.load_anchors(), tmp_path / name)
    rnd = wl.round(api, st, lambda: 1.0)
    assert rnd.ops > 0
    assert rnd.failures == {}
    wl.check(st, rnd)
    assert rnd.failures == {}
    assert wl.final_checks(st).failures == {}


def _traced_round(name, tmp_path):
    """One seeded round of a workload, traced as round 0 and checked."""
    wl = workloads.WORKLOADS[name]
    rec = tracing.Recorder()
    api = tracing.traced_api(rec, workloads.plain_api())
    st = wl.setup(workloads.make_inputs(name, SEED), api)
    wl.prepare(st, workloads.load_anchors(), tmp_path / name)
    rec.round = 0
    with tracing.boundaries(rec):
        rnd = wl.round(api, st, lambda: 1.0)
    rec.round = tracing.SETUP_ROUND
    wl.check(st, rnd)
    assert rnd.failures == {}
    return wl, rec


@pytest.mark.filterwarnings("ignore:initial datum jumps")
def test_traced_cli_compare_round(tmp_path):
    # The traced run sees the CLI's predictor only through the names it
    # wraps: a predictor routed around nnlstep.cli.modulated_params would
    # leave the compare spans empty and the balance off.
    for mod_name, attr, _ in tracing.BOUNDARIES:
        assert hasattr(importlib.import_module(mod_name), attr), (mod_name, attr)
    for mod_name in tracing.SPEC_MODULES:
        assert hasattr(importlib.import_module(mod_name), "IntegrandSpec")

    _, rec = _traced_round("cli_compare", tmp_path)
    predictor = [
        span for span in rec.spans
        if span[0] == "rh_asymptotics.modulated_params" and span[4] == 0
        and span[3] >= 0 and rec.spans[span[3]][0] == "nnls_sim.compare"
    ]
    assert len(predictor) == 82
    main, parts = tracing.cli_balance(rec, 0)
    assert main > 0 and abs(main - parts) <= 1e-9 * main


def test_traced_asym_rays_round(tmp_path):
    # d(A) is one plain walk per R, as F_+(0)/delta(0) is a single integral
    # whose pole at 0 lies off the ray; the round walks no Cauchy integral.
    wl, rec = _traced_round("asym_rays", tmp_path)
    names = [span[0] for span in rec.spans if span[4] == 0]
    assert "quadrature.cauchy_semiinfinite" not in names
    walks = [
        span for span in rec.spans
        if span[0] == "quadrature.semiinfinite_integral" and span[4] == 0
        and rec.spans[span[3]][0] == "rh_asymptotics.transition_params"
    ]
    assert len(walks) == len(wl.R_SET) == 3
    assert rec.counts[(0, "quadrature.integrand_points")] == 442_200


def test_traced_jost_table_round_solves_no_ode(tmp_path):
    # The traced layer still sees nnlstep.spectral.solve_ivp: the round
    # builds and reads its data without it, and d(A) on those data solves
    # no ODE either, as the k = 0 norming constant sweeps the transfer cells.
    wl = workloads.WORKLOADS["jost_table"]
    rec = tracing.Recorder()
    api = tracing.traced_api(rec, workloads.plain_api())
    st = wl.setup(workloads.make_inputs("jost_table", SEED), api)
    wl.prepare(st, workloads.load_anchors(), tmp_path / "jost_table")
    with tracing.boundaries(rec):
        rec.round = 0
        rnd = wl.round(api, st, lambda: 1.0)
        rec.round = 1
        nnlstep.transition_dA(rnd.output[0])
    rec.round = tracing.SETUP_ROUND
    wl.check(st, rnd)
    assert rnd.failures == {}

    def solves(rnd_id):
        return sum(1 for span in rec.spans if span[0] == "spectral.solve_ivp" and span[4] == rnd_id)

    assert (solves(0), solves(1)) == (0, 0)
