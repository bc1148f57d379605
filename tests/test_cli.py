import json

import pytest

from qcactus import crystals, uqsl2
from qcactus.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_crystal_graph_dot(capsys):
    code, out = invoke(capsys, "crystal", "graph", "--shape", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert out.count('"b0"') >= 1


def test_crystal_graph_deterministic(capsys):
    _, first = invoke(capsys, "crystal", "graph", "--shape", "1,2", "--format", "dot")
    _, second = invoke(capsys, "crystal", "graph", "--shape", "1,2", "--format", "dot")
    assert first == second


def test_crystal_decompose_json(capsys):
    code, out = invoke(capsys, "crystal", "decompose", "--shape", "2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [c["highest_weight"] for c in data["components"]] == [4, 2, 0]


def test_commutor_json_round_trips(capsys):
    code, out = invoke(capsys, "commutor", "--a", "1", "--b", "2")
    assert code == 0
    m = crystals.CrystalMap.from_json(out)
    assert m == crystals.commutor_c((1,), (2,))

    code, out = invoke(capsys, "commutor", "--a", "1", "--b", "2", "--variant", "S")
    assert code == 0
    assert crystals.CrystalMap.from_json(out) == crystals.commutor_S((1,), (2,))


def test_cactus_act(capsys):
    code, out = invoke(
        capsys, "cactus", "act", "--shape", "1,1,1", "--p", "1", "--q", "3",
        "--format", "json",
    )
    assert code == 0
    m = crystals.CrystalMap.from_json(out)
    assert m == crystals.cactus_action((1, 1, 1), 1, 3)


def test_rmatrix_unitarized_s2(capsys):
    code, out = invoke(
        capsys, "rmatrix", "--m", "1", "--n", "1", "--frame", "s2", "--unitarize"
    )
    assert code == 0
    mat = uqsl2.QMatrix.from_json(out)
    assert mat == uqsl2.QMatrix.diagonal([1, -1, 1, 1])
    assert json.loads(out)["frame"] == "s2"


def test_rmatrix_plain_s1(capsys):
    code, out = invoke(capsys, "rmatrix", "--m", "1", "--n", "1", "--frame", "s1")
    assert code == 0
    mat = uqsl2.QMatrix.from_json(out)
    v1 = uqsl2.irreducible(1)
    assert mat == uqsl2.braiding_matrix(v1, v1, "s1")


def test_check_braiding_obstruction(capsys):
    code, out = invoke(capsys, "check", "braiding-obstruction")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["forced"] == "b1⊗b1⊗b-1"
    assert data["hexagon"] == "b1⊗b-1⊗b1"
    assert data["obstruction_confirmed"] is True


def test_check_coboundary(capsys):
    code, out = invoke(capsys, "check", "coboundary", "--max", "1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["failures"] == []
    assert data["triples_checked"] == 8


def test_check_cactus_action(capsys):
    code, out = invoke(capsys, "check", "cactus-action", "--factors", "3", "--max", "1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["base_shapes"] == 4


def test_check_yang_baxter(capsys):
    code, out = invoke(capsys, "check", "yang-baxter")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_check_kt07_small(capsys):
    code, out = invoke(capsys, "check", "kt07", "--max", "1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert len(data["pairs"]) == 4


def test_check_kt07_lattice_failure_is_a_fail_report(capsys, monkeypatch):
    # the plain braiding has entries singular at q = infinity, so the
    # lattice check must fail -- and be reported as a failed check
    monkeypatch.setattr(uqsl2, "unitarized_matrix", uqsl2.braiding_matrix)
    code, out = invoke(capsys, "check", "kt07", "--max", "1")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail"
    failed = [pair for pair in data["pairs"] if not pair["ok"]]
    assert failed
    assert all("error" in pair for pair in failed)
    assert any("entry (" in pair["error"] for pair in failed)


def _clear_crystal_caches():
    for value in vars(crystals).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_crystal_invariant_failure_is_a_failed_check(capsys, monkeypatch):
    # a tensor rule that never lowers breaks every chain of length > 1,
    # which must surface as a failed verification naming the word
    monkeypatch.setattr(crystals, "tensor_f", lambda w: None)
    _clear_crystal_caches()
    try:
        code = run(["check", "coboundary", "--max", "1"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert "qcactus: verification failed: component of b1⊗b0 is not a chain" in captured.err


def _clear_uqsl2_caches():
    for value in vars(uqsl2).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _wrong_twist(lam):
    return lam * (lam + 2) // 2 + 1


def test_unitarization_failure_is_a_failed_verification(capsys, monkeypatch):
    # a twist exponent off by one breaks (R^op R) X^2 = 1, which the exact
    # self-check must report as a failed verification, not a usage error
    monkeypatch.setattr(uqsl2, "_twist_exponent", _wrong_twist)
    _clear_uqsl2_caches()
    try:
        code = run(["rmatrix", "--m", "1", "--n", "1", "--unitarize"])
    finally:
        monkeypatch.undo()
        _clear_uqsl2_caches()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("qcactus: verification failed: (R^op R)^(-1/2) on (1,) (x) (1,)")


def test_check_kt07_unitarization_failure_is_a_fail_report(capsys, monkeypatch):
    monkeypatch.setattr(uqsl2, "_twist_exponent", _wrong_twist)
    _clear_uqsl2_caches()
    try:
        code, out = invoke(capsys, "check", "kt07", "--max", "1")
    finally:
        monkeypatch.undo()
        _clear_uqsl2_caches()
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail"
    assert len(data["pairs"]) == 4
    assert not any(pair["ok"] for pair in data["pairs"])
    assert all("highest weight vector" in pair["error"] for pair in data["pairs"])


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rmatrix", "--m", "1", "--n", "1", "--frame", "s3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["crystal", "decompose", "--shape", "2,2", "--format", "dot"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["crystal", "graph", "--shape", "banana"])
    assert exc.value.code == 2


def _assert_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "weight bound must be nonnegative" in captured.err


def test_check_kt07_rejects_negative_bound(capsys):
    _assert_usage_error(capsys, "check", "kt07", "--max", "-1")


def test_check_coboundary_rejects_negative_bound(capsys):
    _assert_usage_error(capsys, "check", "coboundary", "--max", "-3")


def test_check_cactus_action_rejects_negative_bound(capsys):
    _assert_usage_error(capsys, "check", "cactus-action", "--max", "-1")


def test_bad_value_combinations_exit_2(capsys):
    code = run(["cactus", "act", "--shape", "1,1,1", "--p", "0", "--q", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_failing_report_exits_1(capsys):
    from qcactus.cli import _emit_report

    class Args:
        output = None

    code = _emit_report("demo", False, {"failures": ["x"]}, Args())
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_output_file_and_outdir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "graph.dot"
    code, out = invoke(
        capsys, "crystal", "graph", "--shape", "1", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph crystal {")

    monkeypatch.setenv("QCACTUS_OUTDIR", str(tmp_path))
    code, _ = invoke(capsys, "crystal", "graph", "--shape", "1", "-o", "rel.dot")
    assert code == 0
    assert (tmp_path / "rel.dot").exists()


def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.dot"
    code = run(["crystal", "graph", "--shape", "1", "-o", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"qcactus: error: cannot write {path}: ")
    assert "Traceback" not in err


def test_missing_output_directory_is_a_usage_error(capsys, tmp_path, monkeypatch):
    outdir = tmp_path / "missing"
    monkeypatch.setenv("QCACTUS_OUTDIR", str(outdir))
    code = run(["crystal", "graph", "--shape", "1", "--format", "json", "-o", "out.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"qcactus: error: cannot write {outdir / 'out.json'}: ")
    assert "Traceback" not in err
