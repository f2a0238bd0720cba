"""One benchmark worker: a fresh process that imports the library from the
checkout's ``src/``, generates one workload's inputs from the seed, prints
``READY`` and then runs the closed loop (one client, next operation only
after the previous one returns).  The correctness gate runs after the
timed loop.  The last stdout line is a JSON summary for ``run.py``.

An operation's latency is the CPU time it costs: that of this thread,
plus that of the CLI process it waits for.  The library is single-threaded
(one BLAS thread) and does no I/O inside a timed call, so on an idle
machine this equals its wall time.  On a shared VM it leaves out the time
other tenants take the vCPU away (steal), which made wall times of the
same operation vary by up to 2x.  CPU time still follows the host's
speed, which swung by up to 2x within seconds, so each operation's CPU
time is put at one reference host speed by the probes of ``hostspeed.py``
taken just before, during and just after it.  CPU time of a CLI child
process runs outside those probes, so it gets the run's median factor.
Unscaled CPU times and wall times are kept beside them.

Modes: ``probe`` stops after ``READY`` (a set-up time sample), ``run``
measures end to end with no wrapper installed, ``trace`` runs an
untraced pass and then replays the same operations with the layer
wrappers installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from gate import Gate
from layertrace import NAME, OP, OUTCOME, Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 170
MIN_PASSES = 2             # each operation's latency is its median over the passes


@dataclass
class Rec:
    kind: str
    instance: int
    pass_no: int
    dt: float                  # CPU seconds (see cpu_seconds), children included
    outcome: object
    meta: dict = field(default_factory=dict)
    skipped: bool = False
    wall: float = 0.0          # wall seconds
    child: float = 0.0         # CPU seconds of the CLI child process
    probe: float | None = None         # host-speed probe taken just before the op
    probe_after: float | None = None   # the next probe, taken just after it
    inside: list = field(default_factory=list)   # probes taken during it

    @property
    def speed_factor(self):
        return hostspeed.speed_factor([self.probe, self.probe_after, *self.inside])


def cpu_seconds():
    """CPU time of this thread, and of the waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time(), kids.ru_utime + kids.ru_stime


def import_library():
    sys.path.insert(0, str(SRC))
    import robustmolp
    import robustmolp.cli
    where = Path(robustmolp.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"robustmolp imported from {where}, not from {SRC}")
    return robustmolp


def verdict(rec):
    """The answer of one operation, compared between traced and untraced runs."""
    out = rec.outcome
    if rec.skipped:
        return "skipped"
    if out.error is not None:
        return f"error:{type(out.error).__name__}"
    v = out.value
    if rec.kind == "radius":
        return repr(v.rho)
    if rec.kind in ("ball", "certify"):
        return v.status
    if rec.kind == "verify":
        return f"{v.ok}:{v.first_failing}"
    code, report, _ = v
    return f"{code}:{None if report is None else report['verdict']}"


def verdict_class(rec):
    """Coarse answer category for the verdict mix."""
    v = verdict(rec)
    if rec.kind == "radius" and not v.startswith(("error", "skipped")):
        return "ok"
    if rec.kind == "verify":
        return "valid" if v.startswith("True") else "invalid"
    return v


class Client:
    """Runs one workload's operations in a closed loop."""

    def __init__(self, api, workload, instances, in_process_cli, tracer=None):
        self.api = api
        self.workload = workload
        self.instances = instances
        self.in_process_cli = in_process_cli
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run_cli(self, argv):
        if self.in_process_cli:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = sys.modules["robustmolp.cli"].main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:                      # a traceback exits 1 as a process
                code = 1
            text = out.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "robustmolp.cli", *argv],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            code, text = proc.returncode, proc.stdout
        try:
            report = json.loads(text) if text.strip() else None
        except json.JSONDecodeError:
            report = None
        return code, report, text

    def loop(self, min_seconds=None, min_passes=1, max_ops=None):
        """Run whole passes over the instances until min_seconds have
        passed and at least min_passes are done, or stop after max_ops
        operations."""
        target = self.run_cli if self.workload.name == "cli" else self.api
        clock = time.perf_counter
        start = clock()
        recs = []
        for pass_no in itertools.count():
            for idx, inst in enumerate(self.instances):
                ops = self.workload.operations(target, inst)
                outcome = None
                while True:
                    try:
                        op = ops.send(outcome)
                    except StopIteration:
                        break
                    if op.call is None:
                        outcome = Outcome(error=RuntimeError("not attempted"))
                        recs.append(Rec(op.kind, idx, pass_no, 0.0, outcome, op.meta, True))
                    else:
                        probe = hostspeed.probe()
                        if self.tracer is not None:
                            self.tracer.op = len(recs)
                        t0, (own0, kids0) = clock(), cpu_seconds()
                        # no probes inside layer spans
                        with hostspeed.Sampling(active=self.tracer is None) as inside:
                            try:
                                outcome = Outcome(op.call())
                            except Exception as exc:       # an operation failure
                                outcome = Outcome(error=exc)
                        own1, kids1 = cpu_seconds()
                        wall = clock() - t0 - inside.cost_s
                        child = kids1 - kids0
                        dt = own1 - own0 - inside.cost_s + child
                        recs.append(Rec(op.kind, idx, pass_no, dt, outcome, op.meta,
                                        wall=wall, child=child, probe=probe,
                                        inside=inside.samples))
                    if max_ops is not None and len(recs) >= max_ops:
                        ops.close()
                        return close_probes(recs)
            if (min_seconds is not None and clock() - start >= min_seconds
                    and pass_no + 1 >= min_passes):
                return close_probes(recs)


def close_probes(recs):
    """Give each timed record the probe taken right after it: the next
    record's probe, or a final one after the last operation."""
    after = hostspeed.probe()
    for r in reversed(recs):
        if r.probe is not None:
            r.probe_after, after = after, r.probe
    return recs


def replay_results(recs):
    """Map each certified certify record to its timed replay's answer
    (True/False), or None when the replay did not run or raised."""
    out = {}
    for i, rec in enumerate(recs):
        if rec.kind not in ("certify", "cli-certify") or rec.outcome.error is not None:
            continue
        if rec.kind == "certify" and rec.outcome.value.status != "certified":
            continue
        if rec.kind == "cli-certify" and rec.outcome.value[0] != 0:
            continue
        want = "verify" if rec.kind == "certify" else "cli-verify"
        replay = next((r for r in recs[i + 1:]
                       if r.kind == want and r.instance == rec.instance
                       and r.pass_no == rec.pass_no), None)
        out[i] = None
        if replay is not None and replay.outcome.error is None:
            if rec.kind == "certify":
                out[i] = replay.outcome.value.ok
            elif replay.outcome.value[0] in (0, 1):
                out[i] = replay.outcome.value[0] == 0
    return out


def run_gate(api, instances, recs):
    gate = Gate(api)
    replays = replay_results(recs)
    judged = []
    for i, rec in enumerate(recs):
        inst = instances[rec.instance]
        replay_ok = replays.get(i, None)
        if i in replays and replay_ok is None:
            replay_ok = untimed_replay(api, gate, rec, inst)
        judged.append(gate.judge(rec, inst, replay_ok))
    return judged


def untimed_replay(api, gate, rec, inst):
    try:
        if rec.kind == "certify":
            return gate.replay(inst, rec.outcome.value.certificate)
        doc = rec.outcome.value[1]["payload"]["certificate"]
        return gate.replay(inst.certify, api.cli.certificate_from_dict(doc))
    except Exception:                              # a replay that raises fails
        return False


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def properties(workload, instances, recs, tracer=None):
    """Measured share of operations with each property a later change may target."""
    attempted = max(1, len(recs))
    props = {}
    if workload.name in ("certify-poly", "certify-cone", "cli"):
        insts = [instances[r.instance] for r in recs]
        if workload.name == "cli":
            insts = [i.certify for i in insts]
        props["ops_on_instances_with_s2_block"] = sum(
            bool(i.props.get("has_soc2")) for i in insts) / attempted
        rows = sum(i.props.get("rows", 0) for i in insts)
        box = sum(i.props.get("box_rows", 0) for i in insts)
        props["box_enumeration_row_share"] = box / rows if rows else 0.0
    if tracer is not None:
        infeasible_ops = {s[OP] for s in tracer.spans
                          if s[NAME] == "numerics.solve_cone_system"
                          and s[OUTCOME] is not None and not s[OUTCOME][0]}
        props["ops_with_infeasible_endpoint_cone_system"] = len(infeasible_ops) / attempted
    return props


def per_op_medians(recs, time_of):
    """Latency (ms) of each operation of a pass, as its median over passes,
    so that one disturbed sample does not move it."""
    samples, seen = {}, Counter()
    for r in recs:
        if r.skipped:
            continue
        key = (r.instance, r.kind, r.pass_no)
        samples.setdefault((r.instance, r.kind, seen[key]), []).append(
            time_of(r) * 1000.0)
        seen[key] += 1
    return [statistics.median(v) for v in samples.values()]


def summarize(recs, judged, loop_s):
    done = [r for r in recs if not r.skipped]
    run_factor = statistics.median(r.speed_factor for r in done) if done else 1.0
    lat = per_op_medians(recs, lambda r: (r.dt - r.child) * r.speed_factor
                         + r.child * run_factor)
    cpu = per_op_medians(recs, lambda r: r.dt)
    wall = per_op_medians(recs, lambda r: r.wall)
    failed = sum(f for f, _, _ in judged)
    wrong = sum(w for _, w, _ in judged)
    mix = Counter(f"{r.kind}:{verdict_class(r)}" for r in recs)
    reasons = Counter(reason for _, _, reason in judged if reason)
    return {
        "attempted": len(recs), "completed": len(done),
        "failed": failed, "wrong": wrong,
        "loop_s": loop_s,
        "ops_per_s": 1000.0 * len(lat) / sum(lat) if lat else 0.0,
        "latency_p50_ms": percentile(lat, 50), "latency_p90_ms": percentile(lat, 90),
        "speed_factor": run_factor,
        "cpu_ops_per_s": 1000.0 * len(cpu) / sum(cpu) if cpu else 0.0,
        "cpu_latency_p50_ms": percentile(cpu, 50),
        "cpu_latency_p90_ms": percentile(cpu, 90),
        "wall_ops_per_s": 1000.0 * len(wall) / sum(wall) if wall else 0.0,
        "wall_latency_p50_ms": percentile(wall, 50),
        "wall_latency_p90_ms": percentile(wall, 90),
        "latency_samples": len(done), "latency_ops": len(lat),
        "passes": 1 + max((r.pass_no for r in recs), default=0),
        "instances_touched": len({r.instance for r in recs}),
        "verdict_mix": dict(sorted(mix.items())),
        "ops": [[r.instance, r.kind, r.pass_no, r.dt * 1000.0, r.wall * 1000.0,
                 None if r.skipped else r.speed_factor] for r in recs],
        "gate_reasons": dict(reasons.most_common()),
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    api = import_library()
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        instances = workload.make_inputs(api, workdir, args.seed)
        print("READY", flush=True)
        if args.mode == "probe":
            return 0
        is_cli = workload.name == "cli"
        result = {}
        if args.mode == "run":
            client = Client(api, workload, instances, in_process_cli=False)
            t0 = time.perf_counter()
            recs = client.loop(min_seconds=args.seconds, min_passes=MIN_PASSES)
            loop_s = time.perf_counter() - t0
            result["peak_rss_mb"] = peak_rss_mb(children=is_cli)
        else:
            client = Client(api, workload, instances, in_process_cli=True)
            t0 = time.perf_counter()
            recs = client.loop(min_seconds=args.seconds / 2.0)
            loop_s = time.perf_counter() - t0
            tracer = Tracer()
            tracer.install(api)
            try:
                traced = Client(api, workload, instances, in_process_cli=True,
                                tracer=tracer).loop(max_ops=len(recs))
            finally:
                tracer.uninstall()
            mismatched = [i for i, (a, b) in enumerate(zip(recs, traced))
                          if verdict(a) != verdict(b)]
            op_u = sum(r.wall for r in recs)      # layer spans are wall time
            op_t = sum(r.wall for r in traced)
            layer = tracer.summary()
            layer["trace_overhead_ratio"] = op_t / op_u if op_u > 0 else 0.0
            layer["trace_self_time_coverage"] = tracer.self_time_total() / op_t if op_t > 0 else 0.0
            layer["trace_ops"] = len(traced)
            result["layers"] = layer
            result["trace_verdicts_match"] = not mismatched and len(traced) == len(recs)
            result["trace_mismatches"] = mismatched[:20]
            result["spans"] = tracer.dump()
        t_gate = time.perf_counter()
        judged = run_gate(api, instances, recs)
        result["gate_s"] = time.perf_counter() - t_gate
        result.update(summarize(recs, judged, loop_s))
        result["properties"] = properties(workload, instances, recs,
                                          tracer if args.mode == "trace" else None)
        result["gate_ran"] = len(judged) == len(recs)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
