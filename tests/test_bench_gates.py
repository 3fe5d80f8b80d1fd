"""The benchmark's correctness gates, run once per workload.

One seeded round of each workload in ``bench/workloads.py``, then its
``check`` and ``final_checks``: the anchors and reference gates the
benchmark applies to every run.  No timing is taken.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

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
