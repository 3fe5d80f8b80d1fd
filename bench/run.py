"""Benchmark of the nnlstep package, one workload per invocation.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload solver_desk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and NOTES.md): solver_desk, asym_rays,
cli_compare, jost_table; ``all`` runs the four in turn, each in its own
child process so that peak RSS stays per workload.

A run times the package set-up (import plus the workload's set-up, in
SETUP_PROBES fresh interpreters, each scaled by the time of importing
NumPy and SciPy alone beside it; the median is ``setup_s``), then repeats fixed-size rounds in a closed loop for
--seconds, checking every round's outputs against references.  Every
round's timing is likewise scaled by a benchmark-owned yardstick timed beside it
(yardstick.py), which cancels the shared host's changes of speed; the
end-to-end metrics are the scaled figures, and the raw ones are printed
and recorded beside them.  It
prints the machine record, one human-readable line per metric, and as
its last line one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1 runs
untraced and traced rounds alternately and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Each run also
writes its record (and, when traced, its spans) under .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("solver_desk", "asym_rays", "cli_compare", "jost_table")
SETUP_PROBES = 2
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 170

PROBE = """\
import sys, time, warnings
warnings.filterwarnings("ignore", message="initial datum jumps")
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
wl = workloads.WORKLOADS[{name!r}]
wl.setup(workloads.make_inputs({name!r}, {seed}), workloads.plain_api())
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_workloads():
    """Import the workloads (and with them the package) from this checkout."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import nnlstep
    import workloads

    if not Path(nnlstep.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nnlstep was imported from {nnlstep.__file__}, not from {SRC}")
    return workloads


def run_probe(code: str) -> float:
    """Run ``code`` in a fresh interpreter; return the number it prints last."""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout.strip().splitlines()[-1])


def probe_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """[(set-up time, speed factor)] of SETUP_PROBES fresh interpreters.

    The import yardstick runs before and after each set-up probe, and the
    probe's factor comes from the two runs beside it.
    """
    import yardstick

    code = PROBE.format(paths=[str(SRC), str(BENCH)], name=name, seed=seed)
    ys = [run_probe(yardstick.IMPORT_PROBE)]
    samples = []
    for _ in range(SETUP_PROBES):
        setup = run_probe(code)
        ys.append(run_probe(yardstick.IMPORT_PROBE))
        samples.append((setup, yardstick.IMPORT_REF_S / (0.5 * (ys[-2] + ys[-1]))))
    return samples


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, int]:
    # GridTooCoarse: the soliton for phi0 near 1 and the pure step both jump
    # by more than A/2 within one cell of the dx = 0.05 grid, as intended.
    warnings.filterwarnings("ignore", message="initial datum jumps")
    t0 = time.perf_counter()
    workloads = import_workloads()
    import numpy as np
    import tracing

    wl = workloads.WORKLOADS[name]
    rec = tracing.Recorder() if traced else None
    api = workloads.plain_api()
    tapi = tracing.traced_api(rec, api) if traced else None
    st = wl.setup(workloads.make_inputs(name, seed), tapi or api)
    setup_in_process = time.perf_counter() - t0
    setup_samples = [] if traced else probe_setup(name, seed)

    workdir = RUNS / f"{name}-{os.getpid()}"
    try:
        wl.prepare(st, workloads.load_anchors(), workdir)
        rounds = closed_loop(wl, st, api, tapi, rec, seconds)
        try:
            fin = wl.final_checks(st)
        except Exception as exc:  # a gate that raises is a failed gate
            fin = workloads.Round(attempted=1)
            fin.fail("final checks", repr(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r, *_ in rounds) + fin.attempted
    failures = {}
    for r, *_ in rounds:
        failures.update(r.failures)
    failures.update(fin.failures)

    # Medians over rounds of per-round figures: the machine's load comes in
    # bursts, and a pooled mean or tail would report the bursts.  Each
    # figure is given raw and scaled by the round's yardstick factor f.
    plain = [(r, w, f) for r, w, tr, f in rounds if not tr and r.latencies_s]
    untraced = [(w, f) for _, w, tr, f in rounds if not tr]

    def per_round(fn) -> float:
        return float(np.median([fn(*x) for x in plain])) if plain else 0.0

    def scaled(r, f):
        return r.scaled_s or [lat * f for lat in r.latencies_s]

    raw = {
        "wall_s": (float(np.median([w for w, _ in untraced])), "s"),
        "ops_per_s": (per_round(lambda r, w, f: r.ops / w), "1/s"),
        "op_ms_p50": (per_round(lambda r, w, f: 1e3 * np.percentile(r.latencies_s, 50)), "ms"),
        "op_ms_p90": (per_round(lambda r, w, f: 1e3 * np.percentile(r.latencies_s, 90)), "ms"),
        "speed_factor": (float(np.median([f for _, f in untraced])), "x"),
    }
    ops_per_s = per_round(lambda r, w, f: r.ops / (w * f))
    p50_ms = per_round(lambda r, w, f: 1e3 * np.percentile(scaled(r, f), 50))
    p90_ms = per_round(lambda r, w, f: 1e3 * np.percentile(scaled(r, f), 90))
    norm_wall = float(np.median([w * f for w, f in untraced]))
    if traced:
        traced_rounds = [i for i, (_, _, tr, _) in enumerate(rounds) if tr]
        metrics = tracing.layer_metrics(rec, traced_rounds)
        traced_wall = float(np.median([w * f for _, w, tr, f in rounds if tr]))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - norm_wall, "s")
        if name == "cli_compare":
            for i in traced_rounds:
                main, parts = tracing.cli_balance(rec, i)
                if abs(main - parts) > 1e-9 * max(main, 1.0):
                    failures[f"cli balance round {i}"] = f"main {main} != parts {parts}"
    else:
        metrics = {
            "setup_s": (float(np.median([s * f for s, f in setup_samples])), "s"),
            "norm_wall_s": (norm_wall, "s"),
            "norm_ops_per_s": (ops_per_s, "1/s"),
            "norm_op_ms_p50": (p50_ms, "ms"),
            "norm_op_ms_p90": (p90_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    failed = min(len(failures), attempted)
    extra = {**raw, **wl.report(st, ops_per_s, p50_ms, p90_ms)}
    extra["failed_ratio"] = (failed / attempted, "-")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "op": wl.op, "machine": machine_record(), "setup_in_process_s": setup_in_process,
        "setup_samples": setup_samples,
        "rounds": [{"wall_s": w, "traced": tr, "ops": r.ops, "factor": f}
                   for r, w, tr, f in rounds],
        "failures": failures, "result": result,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    if traced:
        record["spans"] = rec.spans
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record) + "\n")

    print("machine " + json.dumps(record["machine"]))
    for label, msg in list(failures.items())[:20]:
        print(f"FAILED {name} {label}: {msg}", file=sys.stderr)
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{name:12s} {k:42s} {v:.6g} {u}")
    return result, 0 if result["correct"] else 1


def closed_loop(wl, st, api, tapi, rec, seconds):
    """Run rounds back to back for ``seconds``; check each after timing it.

    The workload's yardstick ticks before the first round, after every
    round and wherever the round ticks it between its ops; a round's
    speed factor comes from the ticks on both sides of it and inside it,
    and its wall time excludes them.  With a recorder, odd rounds run
    with the wrappers installed, so the traced and untraced walls come
    from the same process and conditions.
    Returns [(Round, wall seconds, traced, speed factor)].
    """
    import tracing
    from workloads import Round

    ys = wl.yardstick(st)
    ys.tick()
    ys.take()
    rounds = []
    deadline = time.perf_counter() + seconds
    min_rounds = 2 if rec is not None else 1
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        i = len(rounds)
        traced = rec is not None and i % 2 == 1
        spent = ys.spent
        t0 = time.perf_counter()
        try:
            if traced:
                rec.round = i
                with tracing.boundaries(rec):
                    rnd = wl.round(tapi, st, ys.tick)
            else:
                rnd = wl.round(api, st, ys.tick)
        except Exception as exc:  # count the failed round and keep looping
            rnd = Round(attempted=1)
            rnd.fail(f"round {i}", repr(exc))
        wall = time.perf_counter() - t0 - (ys.spent - spent)
        ys.tick()
        factor = ys.take()
        if rec is not None:
            rec.round = tracing.SETUP_ROUND
        if not rnd.failures:
            try:
                wl.check(st, rnd)
            except Exception as exc:
                rnd.fail(f"check round {i}", repr(exc))
        if traced:
            for k, v in rnd.counts.items():
                rec.counts[(i, k)] += v
        rnd.output = None
        rounds.append((rnd, wall, traced, factor))
    return rounds


def run_all(args) -> int:
    """Every workload in turn, each in a child process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 2 * args.seconds)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
