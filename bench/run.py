"""Benchmark entry point.

    python3 bench/run.py --workload radius --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh worker process (``worker.py``) driven by one
closed-loop client.  With ``--trace 0`` the end-to-end metrics declared in
``BENCHMARK.json`` are measured with no wrapper installed.  Operation
times are CPU times put at a reference host speed (see ``worker.py``);
set-up time is the wall time to ``READY``, the median over several fresh
workers.  With ``--trace 1`` a worker runs
an untraced pass, then replays the same operations with the layer
wrappers installed and reports the per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results (verdict mix, gate reasons, properties, spans) are written under
``bench_results/``.  The exit code is nonzero when the library cannot be
imported or the correctness gate could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7          # fresh workers timed to READY; the median is setup_s
WORKER_TIMEOUT_S = 170
# small dense kernels: one BLAS thread keeps timings steady on a shared box
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def start_worker(workload, seed, seconds, mode, tag):
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--mode", mode, "--workdir", str(workdir)]
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if first.strip() != "READY":
            raise BenchError(f"{mode} worker for {workload} failed during set-up")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} did not finish")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return ready_s, (json.loads(lines[-1]) if lines else None)


def measure(workload, seed, seconds, trace):
    if trace:
        _, res = start_worker(workload, seed, seconds, "trace", "trace")
        return res, []
    setup = []
    for k in range(SETUP_SAMPLES - 1):
        ready_s, _ = start_worker(workload, seed, seconds, "probe", f"probe{k}")
        setup.append(ready_s)
    ready_s, res = start_worker(workload, seed, seconds, "run", "run")
    setup.append(ready_s)
    return res, setup


def end_to_end(res, setup):
    attempted = res["attempted"]
    return {
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "fail_ratio": res["failed"] / attempted,
        "wrong_ratio": res["wrong"] / attempted,
        "success_ratio": 1.0 - res["failed"] / attempted,
        "right_ratio": 1.0 - res["wrong"] / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        # unscaled and wall-clock counterparts, printed and saved but not gated
        "speed_factor": res["speed_factor"],
        "cpu_ops_per_s": res["cpu_ops_per_s"],
        "cpu_latency_p50_ms": res["cpu_latency_p50_ms"],
        "cpu_latency_p90_ms": res["cpu_latency_p90_ms"],
        "wall_ops_per_s": res["wall_ops_per_s"],
        "wall_latency_p50_ms": res["wall_latency_p50_ms"],
        "wall_latency_p90_ms": res["wall_latency_p90_ms"],
    }


def report(workload, seed, seconds, trace, spec):
    res, setup = measure(workload, seed, seconds, trace)
    if res is None or not res.get("gate_ran"):
        raise BenchError(f"correctness gate did not run on {workload}")
    correct = bool(res["gate_ran"]) and res.get("trace_verdicts_match", True)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = res["layers"] if trace else end_to_end(res, setup)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  "
          f"{'traced' if trace else 'untraced'}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_ratio="ratio", wrong_ratio="ratio", speed_factor="ratio")
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        units["cpu_" + name] = units["wall_" + name] = units[name]
    for name, value in values.items():
        print(f"  {name:58s} {value:14.6g} {units.get(name, '')}")
    print(f"  gate: attempted {res['attempted']}  completed {res['completed']}  "
          f"failed {res['failed']}  wrong {res['wrong']}  "
          f"latency samples {res['latency_samples']} ({res['latency_ops']} operations "
          f"x {res['passes']} passes)  "
          f"instances {res['instances_touched']}  gate time {res['gate_s']:.1f} s")
    print(f"  gate reasons: {json.dumps(res['gate_reasons'])}")
    print(f"  verdict mix: {json.dumps(res['verdict_mix'])}")
    print(f"  properties: {json.dumps(res['properties'])}")
    if trace:
        print(f"  traced and untraced verdicts identical: {res['trace_verdicts_match']}")
    out_dir = ROOT / "bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "seconds": seconds, "trace": trace,
                                "setup_samples_s": setup, "metrics": values,
                                **res}), encoding="utf-8")
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "robustmolp" / "__init__.py").is_file():
        print("error: no src/robustmolp in this checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        results = [report(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
