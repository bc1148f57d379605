"""The qcactus benchmark: cold-process workloads checked against golden outputs.

    python3 perfbench/run.py --workload {kt07,braid,crystal} --seed N \\
        --seconds S --trace {0,1}

Load is one closed-loop client: operations run one at a time, each in a
fresh interpreter (the cold state users pay for, since the library's
``lru_cache``s would make repeats free).  Every operation's exit status
and stdout sha256 are checked against ``golden.json``; a mismatch or a
timeout is a failure, and ``fail_ratio`` = failed / attempted.

``--trace 0`` runs the workload's operation list again and again until
another pass would overrun ``--seconds`` (at least once), and reports
medians over passes; a no-op start-up launched before each operation
gives ``setup_s``.  Every time is scaled to a reference host by probes
of the host's speed taken while it ran (``reference.py``).  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics; the traced pass's spans and aggregates
are kept in ``.perfbench/trace-<workload>.json``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (names and units from
``BENCHMARK.json``).
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from ops import SETUP, WORKLOADS, ops_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
GOLDEN = BENCH / "golden.json"

SETUP_CODE = "import qcactus; from qcactus import cli; cli.build_parser()"
RUN_LIMIT_S = 165.0  # every operation is killed by then, so a run ends within 180 s
LAYERS = ("qexact", "groups", "crystals", "uqsl2")
PROBE_PERIOD_S = 0.1

_clock = time.perf_counter


class Result:
    """One operation's measured run."""

    __slots__ = ("op", "wall", "cpu", "rss_kb", "status", "sha256", "nbytes",
                 "timed_out", "ok", "scale")

    def __init__(self, op, wall, cpu, rss_kb, status, data, timed_out, golden):
        self.op, self.wall, self.cpu, self.rss_kb = op, wall, cpu, rss_kb
        self.status, self.timed_out = status, timed_out
        self.scale = 1.0
        self.sha256 = hashlib.sha256(data).hexdigest()
        self.nbytes = len(data)
        want = None if golden is None else golden.get(op.key)
        self.ok = (not timed_out and want is not None
                   and want["status"] == status and want["sha256"] == self.sha256)


def command(op, trace_path=None, op_id=0):
    python = sys.executable
    if op.kind == "setup":
        return [python, "-c", SETUP_CODE]
    if trace_path is None and op.kind == "cli":
        return [python, "-m", "qcactus.cli", *op.args]
    traced = [] if trace_path is None else ["--trace", str(trace_path), "--op-id", str(op_id)]
    return [python, str(BENCH / "child.py"), *traced, op.kind, *op.args]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(op, golden, deadline, trace_path=None, op_id=0, probes=None):
    """Run one operation in a fresh process; kill it at ``deadline``.

    With ``golden=None`` the output is measured but not checked.  With a
    ``probes`` list, one reference call is timed every ``PROBE_PERIOD_S``
    while the operation runs and appended to it, and the result's
    ``scale`` is ``reference.scale(probes)``.
    """
    with open(SCRATCH / "stdout", "w+b") as out, open(SCRATCH / "stderr", "w+b") as err:
        start = _clock()
        proc = subprocess.Popen(command(op, trace_path, op_id), stdout=out, stderr=err,
                                env=_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                wait = max(0.0, deadline - _clock())
                if probes is not None:
                    wait = min(wait, PROBE_PERIOD_S)
                ready, _, _ = select.select([pidfd], [], [], wait)
                if ready or _clock() >= deadline:
                    break
                probes.append(reference.reference_call())
            if not ready:
                proc.kill()
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = _clock() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0)
        result = Result(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                        proc.returncode, out.read(), not ready, golden)
        if probes:
            result.scale = reference.scale(probes)
        if golden is not None and not result.ok:
            err.seek(0)
            tail = err.read()[-2000:].decode("utf-8", "replace")
            why = ("timed out" if result.timed_out
                   else f"exit {result.status}, sha256 {result.sha256}")
            print(f"FAIL {op.key}: {why}\n{tail}", file=sys.stderr)
    return result


def run_pass(ops, golden, deadline, trace_dir=None, setup=None):
    """Run the operation list once and return its results.

    With a ``setup`` list, a no-op start-up is launched (and appended to
    it) before each operation, so ``setup_s`` samples the whole run, and
    every launch is probed (see ``launch``), starting from a few reference
    calls made just before it.
    """
    def probed(op, *trace):
        probes = None if setup is None else reference.sample()
        return launch(op, golden, deadline, *trace, probes=probes)

    results = []
    for i, op in enumerate(ops):
        if setup is not None:
            setup.append(probed(SETUP))
        if _clock() >= deadline:
            break
        trace_path = None if trace_dir is None else trace_dir / f"op{i}.json"
        results.append(probed(op, trace_path, i))
        if results[-1].timed_out:
            break
    return results


def _wall(results):
    return sum(r.wall for r in results)


def _scaled(results, key):
    return sum(getattr(r, key) * r.scale for r in results)


def end_to_end(ops, golden, seconds, deadline):
    """Run passes until another would overrun ``seconds``; report medians.

    Every time is scaled to the reference host by the probes taken while it
    ran, so the host's speed changes cancel (see ``reference.py``).  The
    benchmark and its operations share one CPU, so the probes see the
    speed that the operation sees.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    passes = []  # (results, setup results)
    start = _clock()
    while True:
        began = _clock()
        setup = []
        passes.append((run_pass(ops, golden, deadline, setup=setup), setup))
        length = _clock() - began
        results = passes[-1][0]
        if len(results) < len(ops) or results[-1].timed_out:
            break
        if _clock() - start + length > seconds:
            break
    complete = [rs for rs, _ in passes if len(rs) == len(ops)] or [rs for rs, _ in passes]
    for i, (rs, _) in enumerate(passes):
        print(f"pass {i}: wall {_wall(rs):.3f} s (scaled {_scaled(rs, 'wall'):.3f} s), "
              f"headline {rs[0].wall:.3f} s (scaled {_scaled(rs[:1], 'wall'):.3f} s)")
    results = [r for rs, setup in passes for r in setup + rs]
    metrics = {
        "setup_s": statistics.median(r.wall * r.scale for _, setup in passes for r in setup),
        "wall_s": statistics.median(_scaled(rs, "wall") for rs in complete),
        "cpu_s": statistics.median(_scaled(rs, "cpu") for rs in complete),
        "headline_s": statistics.median(_scaled(rs[:1], "wall") for rs in complete),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024,
    }
    return results, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate_traces(traces):
    """Sum the per-operation trace files of one traced pass."""
    groups, counts, layer_self, names = {}, {}, {}, {}
    caches = {}
    for t in traces:
        for g, v in t["groups"].items():
            acc = groups.setdefault(g, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in t["layer_self"].items():
            layer_self[k] = layer_self.get(k, 0.0) + v
        for k, (count, _total, _self) in t["names"].items():
            names[k] = names.get(k, 0) + count
        for layer, info in t["caches"].items():
            acc = caches.setdefault(layer, {"hits": 0, "misses": 0, "entries": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["entries"] = max(acc["entries"], info["entries"])
    return groups, counts, layer_self, names, caches


def per_layer(traces, traced, traced_wall, untraced_wall):
    groups, counts, layer_self, names, caches = aggregate_traces(traces)

    def group(name, key):
        return groups.get(name, {}).get(key, 0)

    m = {
        "qexact.ops": group("qexact.arith", "calls"),
        "qexact.self_s": group("qexact.arith", "self_s"),
        "qexact.construct": counts.get("qrational_construct", 0),
        "qexact.monomial_den_share": _ratio(counts.get("monomial_den", 0),
                                            counts.get("arith_results", 0)),
        "uqsl2.matmul.calls": group("uqsl2.matmul", "calls"),
        "uqsl2.matmul.self_s": group("uqsl2.matmul", "self_s"),
        "uqsl2.matmul.cells": counts.get("matmul_cells", 0),
        "uqsl2.matmul.nonzero_share": _ratio(counts.get("matmul_nonzero", 0),
                                             counts.get("matmul_cells", 0)),
        "uqsl2.inverse.calls": group("uqsl2.inverse", "calls"),
        "uqsl2.inverse.self_s": group("uqsl2.inverse", "self_s"),
    }
    for g in ("frame", "unitarize", "module", "braiding", "lattice", "kt07"):
        m[f"uqsl2.{g}.total_s"] = group(f"uqsl2.{g}", "total_s")
    for layer in ("uqsl2", "crystals"):
        info = caches.get(layer, {"hits": 0, "misses": 0, "entries": 0})
        m[f"{layer}.cache_hit_ratio"] = _ratio(info["hits"], info["hits"] + info["misses"])
        m[f"{layer}.cache_entries"] = info["entries"]
    m.update({
        "crystals.tensor_rule.calls": group("crystals.tensor_rule", "calls"),
        "crystals.tensor_rule.self_s": group("crystals.tensor_rule", "self_s"),
        "crystals.words.calls": group("crystals.words", "calls"),
        "crystals.words.self_s": group("crystals.words", "self_s"),
        "crystals.crystalmap.built": names.get("CrystalMap.__init__", 0),
        "crystals.crystalmap.self_s": group("crystals.crystalmap", "self_s"),
        "crystals.decompose.total_s": group("crystals.decompose", "total_s"),
        "crystals.commutor.total_s": group("crystals.commutor", "total_s"),
        "crystals.cactus_action.total_s": group("crystals.cactus_action", "total_s"),
        "groups.verify_action.calls": group("groups.verify_action", "calls"),
        "groups.verify_action.self_s": group("groups.verify_action", "self_s"),
        "groups.checks": counts.get("checks", 0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.bytes_out": sum(r.nbytes for r in traced if r.op.kind == "cli"),
    })
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self.get(layer, 0.0)
    accounted = sum(layer_self.get(layer, 0.0) for layer in LAYERS + ("cli",))
    m["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    m["trace.unaccounted_share"] = 1.0 - _ratio(accounted, sum(r.wall for r in traced))
    return m


def traced_run(workload, ops, golden, deadline):
    untraced = run_pass(ops, golden, deadline)
    trace_dir = SCRATCH / f"trace-{workload}"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.glob("op*.json"):
        stale.unlink()
    traced = run_pass(ops, golden, deadline, trace_dir)
    traces = []
    for i in range(len(traced)):
        path = trace_dir / f"op{i}.json"
        if path.exists():
            traces.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
    trace_dir.rmdir()
    (SCRATCH / f"trace-{workload}.json").write_text(
        json.dumps({"workload": workload, "ops": [o.key for o in ops], "traces": traces}),
        encoding="utf-8")
    for a, b in zip(untraced, traced):
        if a.sha256 != b.sha256 or a.status != b.status:
            print(f"FAIL tracing changed the output of {a.op.key}", file=sys.stderr)
            b.ok = False
    return untraced + traced, per_layer(traces, traced, _wall(traced), _wall(untraced))


def report(results, values, spec):
    """Print the metrics by name and unit; the last line is the result JSON."""
    failed = sum(1 for r in results if not r.ok)
    attempted = len(results)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, v in metrics.items():
        print(f"{name:34s} {v['value']:.6g} {v['unit']}")
    print(f"{'fail_ratio':34s} {_ratio(failed, attempted):.6g} 1 ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _clock() + RUN_LIMIT_S
    if not (SRC / "qcactus" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qcactus sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]
    SCRATCH.mkdir(exist_ok=True)
    ops = ops_for(args.workload, args.seed)
    for op in ops:
        print(f"op  {op.key}")
    if args.trace:
        results, values = traced_run(args.workload, ops, golden, deadline)
        report(results, values, spec["per_layer"])
    else:
        results, values = end_to_end(ops, golden, args.seconds, deadline)
        report(results, values, spec["end_to_end"])
    for name in ("stdout", "stderr"):
        (SCRATCH / name).unlink(missing_ok=True)


if __name__ == "__main__":
    main()
