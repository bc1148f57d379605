"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The traced-run test runs every workload once untraced and once traced
(about a minute on a 2-core machine).
"""

import json
import subprocess
import sys
import time

import pytest

import reference
import run
from ops import SETUP, WORKLOADS, ops_for, pool

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "headline_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = (
    "qexact.ops", "qexact.self_s", "qexact.construct", "qexact.monomial_den_share",
    "uqsl2.matmul.calls", "uqsl2.matmul.self_s", "uqsl2.matmul.cells",
    "uqsl2.matmul.nonzero_share", "uqsl2.inverse.calls", "uqsl2.inverse.self_s",
    "uqsl2.frame.total_s", "uqsl2.unitarize.total_s", "uqsl2.module.total_s",
    "uqsl2.braiding.total_s", "uqsl2.lattice.total_s", "uqsl2.kt07.total_s",
    "uqsl2.cache_hit_ratio", "uqsl2.cache_entries", "crystals.cache_hit_ratio",
    "crystals.cache_entries", "crystals.tensor_rule.calls", "crystals.tensor_rule.self_s",
    "crystals.words.calls", "crystals.words.self_s", "crystals.crystalmap.built",
    "crystals.crystalmap.self_s", "crystals.decompose.total_s", "crystals.commutor.total_s",
    "crystals.cactus_action.total_s", "groups.verify_action.calls",
    "groups.verify_action.self_s", "groups.checks", "cli.self_s", "cli.bytes_out",
    "trace.overhead_ratio", "trace.unaccounted_share",
)


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _golden():
    return json.loads(run.GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    assert ops_for(workload, 7) == ops_for(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_vary_ops_within_cost_classes(workload):
    lists = [ops_for(workload, seed) for seed in range(20)]
    assert len({tuple(ops) for ops in lists}) > 1
    classes = {tuple(op.cost_class for op in ops) for ops in lists}
    assert len(classes) == 1
    drawable = set(pool(workload))
    golden = _golden()
    for ops in lists:
        assert set(ops) <= drawable
    for op in drawable:
        assert op.key in golden, op.key


def test_spec_names_every_metric_with_its_unit():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert set(PER_LAYER) <= {m["name"] for m in spec["per_layer"]}


def test_report_names_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "braid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("fail_ratio") for line in out)


def test_reference_scale_is_one_at_reference_speed():
    assert reference.scale([reference.REFERENCE_S] * 3) == pytest.approx(1.0)
    slow = reference.scale([reference.REFERENCE_S, 3 * reference.REFERENCE_S])
    assert slow == pytest.approx(0.5 ** reference.ELASTICITY)
    assert len(reference.sample()) == reference.CALLS_PER_SAMPLE


def test_probes_set_the_scale_of_a_launch():
    run.SCRATCH.mkdir(exist_ok=True)
    probes = [reference.REFERENCE_S] * 2
    result = run.launch(SETUP, _golden(), time.perf_counter() + 60, probes=probes)
    assert result.ok and len(probes) >= 2
    assert result.scale == pytest.approx(reference.scale(probes))


def test_wrong_golden_hash_counts_as_failure(capsys):
    run.SCRATCH.mkdir(exist_ok=True)
    golden = _golden()
    tampered = dict(golden)
    tampered[SETUP.key] = dict(golden[SETUP.key], sha256="0" * 64)
    deadline = time.perf_counter() + 60
    good = run.launch(SETUP, golden, deadline)
    bad = run.launch(SETUP, tampered, deadline)
    missing = run.launch(SETUP, {}, deadline)
    assert good.ok and not bad.ok and not missing.ok
    capsys.readouterr()
    run.report([good, bad, missing], {"setup_s": good.wall}, [{"name": "setup_s", "unit": "s"}])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_keeps_outputs_and_accounts_for_time(workload):
    run.SCRATCH.mkdir(exist_ok=True)
    ops = ops_for(workload, 3)
    results, metrics = run.traced_run(workload, ops, _golden(),
                                      time.perf_counter() + run.RUN_LIMIT_S)
    untraced, traced = results[:len(ops)], results[len(ops):]
    assert len(traced) == len(ops)
    assert all(r.ok for r in results)
    assert [(r.status, r.sha256) for r in untraced] == [(r.status, r.sha256) for r in traced]

    assert set(PER_LAYER) <= set(metrics)
    if workload == "crystal":
        assert metrics["qexact.ops"] == 0
    else:
        assert metrics["qexact.ops"] > 0
    # the layers' self times add up to each traced operation's root span;
    # start-up and the rest outside it is reported, not hidden
    dump = json.loads((run.SCRATCH / f"trace-{workload}.json").read_text(encoding="utf-8"))
    for trace in dump["traces"]:
        name, start, end, parent, _op_id = trace["spans"][0]
        assert parent == -1
        layers = sum(v for k, v in trace["layer_self"].items() if k != "lib")
        assert layers >= 0.9 * (end - start), (name, layers, end - start)
    assert 0 <= metrics["trace.unaccounted_share"] < 0.25
    assert metrics["trace.overhead_ratio"] > 0
