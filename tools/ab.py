"""Parent against change for any A/B of qcactus: cold launches and benchmark pairs.

    python3 tools/ab.py --parent REV --workdir DIR --out BENCH_NAME.json \\
        --cold ARGS [--cold ARGS ...] [--in-process ARGS:RUNS ...] \\
        [--repeats 3] [--pairs 3] [--seconds 40] [--first-seed 2101] \\
        [--claim TEXT]
``--out`` names the report, relative to the repository root.  The report
records the command as it was given, with the ``--workdir`` value written
as DIR, so a replayed command rewrites its own record.
``--cold`` (at least one) and ``--in-process`` may be given again and
again, and each case they name runs on both sides.  ``--claim`` is the
gain the report states, "none" unless given.

Each side is a fresh copy under DIR: the parent is ``git archive REV``, and
the change is every file of the working tree that ``git ls-files`` lists
(tracked, or untracked and not ignored).  Before every launch the side's
``src/qcactus/__pycache__`` is removed, and ``PYTHONDONTWRITEBYTECODE=1``
keeps it from being written, so both sides compile ``qcactus`` each time;
``PYTHONPYCACHEPREFIX`` is never set.

Cold launches run ``python3 -m qcactus.cli ARGS`` with ``PYTHONPATH=src``
from the side's root and record the wall time, the child's own peak
resident memory (``ru_maxrss`` from ``os.wait4``), the exit status and the
sha256 of stdout and of stderr.  Launches alternate between the sides,
and the side that goes first alternates too.  Each side's case reports
its median wall time and median peak memory, and the case reports the
median over repeats of the change/parent wall ratio, repeat r of one
side against repeat r of the other.  The report is written in
any case, but the tool exits 1, naming each case, when a case's status,
stdout or stderr differs between the sides or across its repeats.
Benchmark pairs run ``perfbench/run.py --trace 0`` on each side in the
same alternating order and keep its status and last line; a pair where
either side exits nonzero or ends without a JSON line is reported as
failed, and the tool then exits 1 too.  On a shared host the
cold times spread widely, so each case is also timed in one process that
loads both copies under different package names and alternates between
them run by run, with every ``lru_cache`` of every loaded module of that
side's package cleared before each run (CPU time, ``time.process_time``).
These in-process cases call each side's ``cli.run``, not ``cli.main``, so
they neither see nor cause what happens only as a launch ends, such as
``main`` freezing the heap before the interpreter's teardown.
Standard library only.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIDES = ("parent", "change")
WORKLOADS = ("kt07", "braid", "crystal")
METRICS = ("setup_s", "wall_s", "cpu_s", "headline_s", "peak_rss_mb")


def _in_process_case(text):
    """ARGS:RUNS as (ARGS, RUNS), RUNS a positive int."""
    args, _, runs = text.rpartition(":")
    if not args or not runs.isdigit() or int(runs) < 1:
        raise argparse.ArgumentTypeError(
            f"expected ARGS:RUNS, e.g. 'check coboundary --max 5:20', got {text!r}")
    return args, int(runs)


def _git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw).stdout


def make_sides(parent, workdir):
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    archive = workdir / "parent.tar"
    archive.write_bytes(_git("archive", "--format=tar", parent))
    subprocess.run(["tar", "-xf", str(archive), "-C", str(sides["parent"])], check=True)
    archive.unlink()
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():
            (sides["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, sides["change"] / name)
    return sides


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def _launch(side, argv, env):
    """Run argv from the side's root; (status, stdout, stderr, wall s, peak MB of the child)."""
    shutil.rmtree(side / "src" / "qcactus" / "__pycache__", ignore_errors=True)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=side, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def cold(sides, repeats, cases):
    results = {}
    for k, args in enumerate(cases):
        runs = {name: [] for name in SIDES}
        for r in range(repeats):
            order = SIDES if (k + r) % 2 == 0 else SIDES[::-1]
            for name in order:
                status, out, err, wall, rss = _launch(
                    sides[name], [sys.executable, "-m", "qcactus.cli", *args.split()],
                    _env(PYTHONPATH="src"))
                runs[name].append({"status": status, "sha256": _sha(out), "stderr_sha256": _sha(err),
                                   "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)})
                print(f"{args} [{name}] {runs[name][-1]}", flush=True)
        results[args] = {name: {
            "wall_s": [run["wall_s"] for run in rs],
            "median_wall_s": round(statistics.median(run["wall_s"] for run in rs), 3),
            "peak_rss_mb": [run["peak_rss_mb"] for run in rs],
            "median_peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in rs), 1),
            "status": sorted({run["status"] for run in rs}),
            "sha256": sorted({run["sha256"] for run in rs}),
            "stderr_sha256": sorted({run["stderr_sha256"] for run in rs}),
        } for name, rs in runs.items()}
        ratios = [c["wall_s"] / p["wall_s"] for p, c in zip(runs["parent"], runs["change"])]
        results[args]["change_over_parent_wall_median"] = round(statistics.median(ratios), 3)
        print(f"{args}: {results[args]['change_over_parent_wall_median']}", flush=True)
    return results


def output_mismatches(cold_results):
    """The cold cases whose status, stdout or stderr is not one value over every launch."""
    return [args for args, case in cold_results.items()
            if any(len({value for name in SIDES for value in case[name][key]}) > 1
                   for key in ("status", "sha256", "stderr_sha256"))]


def _load(name, side):
    """The side's qcactus, imported as the package `name`: its cli module."""
    package = side / "src" / "qcactus"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _clear_caches(name):
    """Clear every lru_cache of every loaded module of the package `name`."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(f"{name}."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def in_process(sides, cases):
    loaded = {name: _load(f"qcactus_{name}", side) for name, side in sides.items()}
    results = {}
    for args, runs in cases:
        times = {name: [] for name in loaded}
        for r in range(runs):
            for name in (SIDES if r % 2 == 0 else SIDES[::-1]):
                _clear_caches(f"qcactus_{name}")
                start = time.process_time()
                with contextlib.redirect_stdout(io.StringIO()):
                    loaded[name].run(args.split())
                times[name].append(time.process_time() - start)
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        results[args] = {f"{name}_median_ms": round(1000 * statistics.median(ts), 1)
                         for name, ts in times.items()}
        results[args]["change_over_parent_median"] = round(statistics.median(ratios), 3)
        print(f"{args}: {results[args]}", flush=True)
    return results


def bench_pairs(sides, pairs, seconds, first_seed):
    runs, k = [], 0
    for workload in WORKLOADS:
        for seed in range(first_seed, first_seed + pairs):
            for name in (SIDES if k % 2 == 0 else SIDES[::-1]):
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                status, out, _, _, _ = _launch(sides[name], argv, _env())
                last = (out.decode().strip().splitlines() or [""])[-1]
                runs.append({"workload": workload, "seed": seed, "side": name,
                             "status": status, "last_line": last})
                print(f"{workload} seed {seed} [{name}] {last}", flush=True)
            k += 1
    return runs


def _result(run):
    """The JSON object of a benchmark run's last line, or None when it exited nonzero or has none."""
    try:
        result = json.loads(run["last_line"])
    except json.JSONDecodeError:
        return None
    return result if run["status"] == 0 and isinstance(result, dict) else None


def failed_pairs(runs):
    """(workload, seed) of each pair where either side has no result."""
    return sorted({(r["workload"], r["seed"]) for r in runs if _result(r) is None})


def summarize(runs):
    lines, failed = [], failed_pairs(runs)
    for workload, seed in failed:
        lines.append(f"{workload} seed {seed}: failed pair, a side exited nonzero "
                     f"or printed no JSON last line")
    for workload in WORKLOADS:
        data = {name: [_result(r) for r in runs if r["workload"] == workload and r["side"] == name
                       and (workload, r["seed"]) not in failed]
                for name in SIDES}
        if not data["parent"]:
            lines.append(f"{workload}: no pair completed")
            continue
        correct = all(d["correct"] and d["failed"] == 0 for ds in data.values() for d in ds)
        lines.append(f"{workload}: {len(data['parent'])} pairs, all correct with 0 failed: {correct}")
        for metric in METRICS:
            values = {name: [d["metrics"][metric]["value"] for d in ds] for name, ds in data.items()}
            p, c = (statistics.median(values[name]) for name in SIDES)
            lower = sum(b < a for a, b in zip(values["parent"], values["change"]))
            q1, _, q3 = (statistics.quantiles(values["parent"], n=4)
                         if len(values["parent"]) > 1 else values["parent"] * 3)
            lines.append(
                f"  {metric}: parent median {p:.4f}, change median {c:.4f} "
                f"({(c - p) / p:+.1%}), change lower in {lower}/{len(values['parent'])}; "
                f"parent quartiles {q1:.4f}-{q3:.4f} (IQR {q3 - q1:.4f}), "
                f"parent range {min(values['parent']):.4f}-{max(values['parent']):.4f}, "
                f"change range {min(values['change']):.4f}-{max(values['change']):.4f}")
    return lines


def _recorded(argv):
    """The command line argv came from, with the --workdir value written as DIR."""
    words, hide = [], False
    for word in argv:
        if hide:
            word, hide = "DIR", False
        elif word == "--workdir":
            hide = True
        elif word.startswith("--workdir="):
            word = "--workdir=DIR"
        words.append(word)
    return " ".join(map(shlex.quote, ["python3", "tools/ab.py", *words]))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workdir", required=True, type=Path, help="where the copies are made")
    parser.add_argument("--repeats", type=int, default=3, help="cold launches per side and case")
    parser.add_argument("--pairs", type=int, default=3, help="benchmark pairs per workload")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--first-seed", type=int, default=2101)
    parser.add_argument("--out", type=Path, required=True,
                        help="the report to write, e.g. BENCH_NAME.json")
    parser.add_argument("--cold", action="append", required=True, metavar="ARGS",
                        help="CLI arguments of a cold case")
    parser.add_argument("--in-process", action="append", default=[], type=_in_process_case,
                        metavar="ARGS:RUNS",
                        help="CLI arguments of an in-process case and its runs per side")
    parser.add_argument("--claim", default="none", help="the gain the report states")
    args = parser.parse_args(argv)

    sides = make_sides(args.parent, args.workdir.resolve())
    cold_results = cold(sides, args.repeats, args.cold)
    in_process_results = in_process(sides, args.in_process)
    runs = bench_pairs(sides, args.pairs, args.seconds, args.first_seed)
    report = {
        "command": _recorded(argv),
        "procedure": __doc__.split("\n\n", 2)[2].strip().replace("\n", " "),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} "
                   f"{platform.release()}; no CPU isolation",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "parent_commit": _git("rev-parse", args.parent).decode().strip(),
        "change": "the commit that adds this file; its src/ tree is the one the runs measured",
        "claim": args.claim,
        "cold": cold_results,
        "cold_output_mismatches": output_mismatches(cold_results),
        "in_process": in_process_results,
        "perfbench_summary": summarize(runs),
        "perfbench_runs": runs,
        "perfbench_failed_pairs": [list(pair) for pair in failed_pairs(runs)],
    }
    (ROOT / args.out).write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for case in report["cold_output_mismatches"]:
        print(f"output differs between the sides or across repeats: {case}", file=sys.stderr)
    for workload, seed in report["perfbench_failed_pairs"]:
        print(f"benchmark pair failed: {workload} seed {seed}", file=sys.stderr)
    return 1 if report["cold_output_mismatches"] or report["perfbench_failed_pairs"] else 0


if __name__ == "__main__":
    sys.exit(main())
