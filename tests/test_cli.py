import argparse
from collections import Counter
import gc
import hashlib
from itertools import combinations_with_replacement
import json
import os
from pathlib import Path
import subprocess
import sys
import time

import pytest

import groups_oracle
import qcactus

from qcactus import cli, crystals, groups, uqsl2
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
    assert out == crystals.commutor_c((1,), (2,)).to_json() + "\n"

    code, out = invoke(capsys, "commutor", "--a", "1", "--b", "2", "--variant", "S")
    assert code == 0
    assert out == crystals.commutor_S((1,), (2,)).to_json() + "\n"


def test_cactus_act(capsys):
    code, out = invoke(
        capsys, "cactus", "act", "--shape", "1,1,1", "--p", "1", "--q", "3",
        "--format", "json",
    )
    assert code == 0
    assert out == crystals.cactus_action((1, 1, 1), 1, 3).to_json() + "\n"


def test_rmatrix_unitarized_s2(capsys):
    code, out = invoke(
        capsys, "rmatrix", "--m", "1", "--n", "1", "--frame", "s2", "--unitarize"
    )
    assert code == 0
    assert out == uqsl2.QMatrix.diagonal([1, -1, 1, 1]).to_json(frame="s2") + "\n"


def test_rmatrix_plain_s1(capsys):
    code, out = invoke(capsys, "rmatrix", "--m", "1", "--n", "1", "--frame", "s1")
    assert code == 0
    v1 = uqsl2.irreducible(1)
    assert out == uqsl2.braiding_matrix(v1, v1, "s1").to_json(frame="s1") + "\n"


def test_check_braiding_obstruction(capsys):
    code, out = invoke(capsys, "check", "braiding-obstruction")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["forced"] == "b1⊗b1⊗b-1"
    assert data["hexagon"] == "b1⊗b-1⊗b1"
    assert data["obstruction_confirmed"] is True


def test_a_commutor_that_meets_the_hexagon_confirms_no_obstruction(capsys, monkeypatch):
    # with commutor_c on (1) (x) (1,1) replaced by the hexagon composite, the
    # two values agree on every word: a contradiction not found is a failed check
    s11 = crystals.unique_component_isomorphism((1, 1), (1, 1))
    hexagon = crystals.extend_map(s11, (1,), ()).compose(crystals.extend_map(s11, (), (1,)))
    commutor_c = crystals.commutor_c

    def commutor(a, b):
        return hexagon if (tuple(a), tuple(b)) == ((1,), (1, 1)) else commutor_c(a, b)

    monkeypatch.setattr(crystals, "commutor_c", commutor)
    code, out = invoke(capsys, "check", "braiding-obstruction")
    assert code == 1
    data = json.loads(out)
    assert (data["status"], data["obstruction_confirmed"]) == ("fail", False)
    assert data["probe"] == data["forced"] == data["hexagon"] == "b1⊗b1⊗b1"  # word 0


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


def test_check_cactus_action_runs_through_the_public_route(capsys, monkeypatch):
    # the route a tracer wrapping public names sees: one call of each per base shape
    calls = Counter()
    for module, fn_name in ((crystals, "cactus_generator_images"), (groups, "verify_action")):
        def counted(*args, _fn=getattr(module, fn_name), _name=fn_name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, fn_name, counted)
    code, out = invoke(capsys, "check", "cactus-action", "--factors", "3", "--max", "1")
    assert code == 0
    assert json.loads(out)["base_shapes"] == 4
    assert calls == {"cactus_generator_images": 4, "verify_action": 4}


def test_check_cactus_action_builds_each_walk_step_once(capsys, monkeypatch):
    # 1,536 walk steps meet 336 distinct (factor weight, block shape) pairs,
    # and every step reads its commutor from crystals._walk_step
    calls = []
    commutor_c = crystals.commutor_c

    def counted(a, b):
        calls.append((a, b))
        return commutor_c(a, b)

    _clear_crystal_caches()
    monkeypatch.setattr(crystals, "commutor_c", counted)
    code, out = invoke(capsys, "check", "cactus-action", "--factors", "4", "--max", "3")
    monkeypatch.undo()
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert len(calls) == len(set(calls)) == 336
    assert crystals._walk_step.cache_info().currsize == 336


def test_cactus_action_failure_names_the_witness_and_its_shape(capsys, monkeypatch):
    # b-1⊗b0⊗b0 is a word of both (1,0,2) and (1,2,0), in the orbit of
    # (0,2,1); this fault breaks one relation at both, so the report must
    # take the first in orbit order and name its shape, as the oracle does
    index = list(crystals.commutor_c((1,), (2,)).index)
    i1, i2 = (crystals.word_index(crystals.TensorWord.from_weights((1, 2), js))
              for js in ((-1, 0), (1, -2)))
    index[i1], index[i2] = index[i2], index[i1]
    faulty = crystals.CrystalMap((1, 2), (2, 1), index)
    commutor_c = crystals.commutor_c

    def commutor(a, b):
        return faulty if (tuple(a), tuple(b)) == ((1,), (2,)) else commutor_c(a, b)

    monkeypatch.setattr(crystals, "commutor_c", commutor)
    # the walk reads its steps from a cache that a warm run would have filled
    # with the real commutor, and that must not keep the faulty one after
    crystals._walk_step.cache_clear()
    try:
        code, out = invoke(capsys, "check", "cactus-action", "--factors", "3", "--max", "2")
        relations = groups.cactus_relation_instances(3)
        want = []
        for combo in combinations_with_replacement(range(3), 3):
            name, images = crystals.cactus_generator_images(combo)
            words = {pq: {name(i): name(j) for i, j in enumerate(image)}
                     for pq, image in images.items()}
            want += [dict(f.as_dict(), shape=list(f.witness.shape))
                     for f in groups_oracle.verify_action(words, relations)]
    finally:
        monkeypatch.undo()
        crystals._walk_step.cache_clear()
    assert code == 1
    assert json.loads(out)["failures"] == want
    assert {"relation": [[[1, 3], [1, 2]], [[2, 3], [1, 3]]], "witness": "b-1⊗b0⊗b0",
            "left": "b0⊗b-1⊗b0", "right": "b-2⊗b1⊗b0", "shape": [1, 0, 2]} in want


def test_cactus_action_rejects_a_shifted_action(capsys, monkeypatch):
    # filing each step's image under the next generator, s(p+1,q) at p and
    # the identity at (q-1,q), is itself an action of the cactus group, so
    # only the shape each generator lands on can tell it from the real one
    walk = crystals._walk

    def shifted(*args):  # the walk's own arguments: shape, q, and its numbering
        steps = list(walk(*args))
        yield steps[0]
        for (p, _, _), (_, cur, indices) in zip(steps[1:], steps):
            yield p, cur, indices

    monkeypatch.setattr(crystals, "_walk", shifted)
    code = run(["check", "cactus-action", "--factors", "4", "--max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert captured.err == ("qcactus: verification failed: s(3,4) on shape (0, 0, 0, 1) "
                            "lands on shape (0, 0, 0, 1), not (0, 0, 1, 0)\n")


def test_a_value_error_inside_a_check_is_a_failed_verification(capsys, monkeypatch):
    # argparse has validated every argument of a check, so a layer's
    # ValueError during the check is a fault of the code, not of the user
    _repeat_first_index(monkeypatch)
    _clear_crystal_caches()
    try:
        code = run(["check", "cactus-action", "--factors", "3", "--max", "1"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("qcactus: verification failed: "
                            "image of generator (1, 2) is not invertible\n")


def test_a_walk_step_off_the_numbered_points_is_a_failed_verification(capsys, monkeypatch):
    # a step that carries words past the orbit's numbers, as a wrong lo in
    # _on_slice does, is a broken invariant that names the step, not an IndexError
    on_slice = crystals._on_slice

    def past_the_end(indices, shape, start, sigma, points, shift=0):
        return on_slice(indices, shape, start, sigma, points, shift + len(points))

    monkeypatch.setattr(crystals, "_on_slice", past_the_end)
    _clear_crystal_caches()
    try:
        code = run(["check", "cactus-action", "--factors", "2", "--max", "1"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("qcactus: verification failed: s(1,2) on shape (0, 0) carries words "
                            "outside the numbered points, onto shape (0, 0)\n")


def test_a_table_a_layer_builds_is_checked_as_a_verification(capsys, monkeypatch):
    # outside a check too: a table the crystal layer computes itself that fails
    # CrystalMap's checks is a broken invariant, exit 1, not a usage error
    _repeat_first_index(monkeypatch)
    _clear_crystal_caches()
    try:
        code = run(["cactus", "act", "--shape", "1,1", "--p", "1", "--q", "2"])
        with pytest.raises(crystals.CrystalInvariantError, match="not a bijection"):
            crystals.extend_map(crystals.commutor_c((1,), (1,)), (1,), ())
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("qcactus: verification failed: the table built for (1, 1) -> (1, 1): "
                            "table is not a bijection onto the codomain shape\n")
    # a table the user gives is still bad input
    with pytest.raises(ValueError, match="not a bijection"):
        crystals.CrystalMap((1, 1), (1, 1), (0, 0, 2, 3))


def test_check_coboundary_catches_an_on_slice_fault_both_routes_share(capsys, monkeypatch):
    # a repeated index in every _on_slice result cancels in the comparison of
    # the two routes of the cactus square; the left route is then no bijection
    _repeat_first_index(monkeypatch)
    _clear_crystal_caches()
    try:
        code = run(["check", "coboundary", "--max", "1"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("qcactus: verification failed: the cactus square on "
                            "(0,) (x) (0,) (x) (1,) is not a bijection\n")


def _misshape_commutor(monkeypatch, mutant):
    """Patch crystals.commutor_c with a one-line mutant whose maps do not go
    from A (x) B to B (x) A: the identity ("no flip"), or the real commutor
    of the pair taken in sorted order ("argument order")."""
    commutor_c = crystals.commutor_c
    mutants = {
        "no flip": lambda a, b: crystals.CrystalMap.identity(tuple(a) + tuple(b)),
        "argument order": lambda a, b: commutor_c(*sorted((tuple(a), tuple(b)))),
    }
    monkeypatch.setattr(crystals, "commutor_c", mutants[mutant])


@pytest.mark.parametrize("mutant, maps", [
    ("no flip", "(0, 1) -> (0, 1) and (1, 0) -> (1, 0)"),
    ("argument order", "(0, 1) -> (1, 0) and (0, 1) -> (1, 0)"),
])
def test_check_coboundary_refuses_commutors_onto_the_wrong_shapes(mutant, maps, capsys,
                                                                  monkeypatch):
    # reading the involution law through such maps looked a word up in the
    # wrong shape, and the KeyError escaped as a traceback
    _misshape_commutor(monkeypatch, mutant)
    _clear_crystal_caches()
    try:
        code = run(["check", "coboundary", "--max", "1"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("qcactus: verification failed: the commutors of (0,) and (1,) "
                            f"map {maps}, not (0, 1) -> (1, 0) and back\n")


@pytest.mark.parametrize("mutant", ["no flip", "argument order"])
def test_cactus_act_refuses_a_walk_that_does_not_reverse_its_interval(mutant, capsys,
                                                                      monkeypatch):
    # both mutants leave (2, 1) where it was, which cactus act printed as
    # the action of s(1,2) with exit 0
    _misshape_commutor(monkeypatch, mutant)
    _clear_crystal_caches()
    try:
        code = run(["cactus", "act", "--shape", "2,1", "--p", "1", "--q", "2", "--format", "text"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("qcactus: verification failed: s(1,2) on shape (2, 1) "
                            "lands on shape (2, 1), not (1, 2)\n")


@pytest.mark.parametrize("factors, count", [
    (61, 1117520), (200, 132016600), (10**9, 83333333166666667083333333000000000)])
def test_a_factor_count_over_the_relation_budget_is_a_usage_error(factors, count, capsys):
    # at --max 0 every shape has one word, so only the relation list is refused
    start = time.perf_counter()
    code = run(["check", "cactus-action", "--factors", str(factors), "--max", "0"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"qcactus: error: --factors {factors} has {count} cactus "
                            "relations: over the budget of 1048576\n")
    assert elapsed < 1.0


def test_an_unwritable_check_report_is_still_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code = run(["check", "coboundary", "-o", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"qcactus: error: cannot write {path}: ")
    assert "Traceback" not in err


def test_a_shape_over_the_word_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cactus", "act", "--shape", "99999999", "--p", "1", "--q", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --shape: bad shape '99999999': shape has 100000000 words" in captured.err
    assert "Traceback" not in captured.err


def test_a_module_over_the_dense_budget_is_a_usage_error(capsys):
    # 100,001 words pass the word budget, but E and F would have 10^10 entries each
    code = run(["rmatrix", "--m", "100000", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("qcactus: error: module of shape (100000,) has dimension 100001: "
                            "10000200001 dense matrix entries, over the budget of 1048576\n")


def test_a_check_that_reaches_the_dense_budget_is_a_failed_verification(capsys, monkeypatch):
    # at a budget of 16 entries, V_1 (x) V_2 (dimension 6) is the first pair over it
    monkeypatch.setattr(uqsl2, "_WORD_BUDGET", 16)
    uqsl2._operators.cache_clear()  # the budget is checked as a module is built
    code = run(["check", "kt07", "--max", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("qcactus: verification failed: module of shape (1, 2) has "
                            "dimension 6: 36 dense matrix entries, over the budget of 16\n")


@pytest.mark.parametrize("argv, largest", [
    ("check cactus-action --factors 11 --max 3",
     "--factors 11 --max 3 reaches a shape of 11 factors of weight 3, 4^11 words"),
    ("check cactus-action --factors 21 --max 1",
     "--factors 21 --max 1 reaches a shape of 21 factors of weight 1, 2^21 words"),
    ("check cactus-action --factors 1000000000 --max 1",
     "--factors 1000000000 --max 1 reaches a shape of 1000000000 factors of weight 1, "
     "2^1000000000 words"),
    ("check coboundary --max 101", "--max 101 reaches the shape (101, 101, 101) of 102^3 words"),
    ("check kt07 --max 32",
     "--max 32 reaches V_32⊗V_32, of dimension 33^2 and 33^4 dense matrix entries"),
])
def test_a_check_bound_over_the_budget_is_refused_before_any_work(argv, largest, capsys,
                                                                  monkeypatch):
    # the largest single shape decides, not the total time; any work would raise here
    def no_work(*args):
        raise AssertionError("the check ran")

    for module, name in ((groups, "cactus_relation_instances"), (crystals, "check_coboundary"),
                         (uqsl2, "verify_kt07")):
        monkeypatch.setattr(module, name, no_work)
    code = run(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"qcactus: error: {largest}: over the budget of 1048576\n"


@pytest.mark.parametrize("bound, power", [(3, 10), (1, 20), (0, 10 ** 9), (100, 3), (31, 4)])
def test_a_check_bound_at_the_budget_is_accepted(bound, power):
    # 4^10 = 2^20 words, 101^3 words and V_31 (x) V_31's 32^4 = 2^20 entries are
    # at the budget, not over it; weight 0 has one word whatever the factor count
    cli._refuse_over_budget(argparse.Namespace(max=bound), power, "unused")


def test_check_yang_baxter(capsys):
    code, out = invoke(capsys, "check", "yang-baxter")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_a_failing_yang_baxter_check_names_its_first_differing_entry(capsys, monkeypatch):
    # entry (1, 2) of flip.R on V1 (x) V1 doubled: the report names the first
    # entry, row by row, where the two sides of the braid relation differ
    braiding_matrix = uqsl2.braiding_matrix

    def doubled(m, n, frame="s1"):
        rows = [list(row) for row in braiding_matrix(m, n, frame).entries]
        rows[1][2] = rows[1][2] + rows[1][2]
        return uqsl2.QMatrix(rows)

    monkeypatch.setattr(uqsl2, "braiding_matrix", doubled)
    code, out = invoke(capsys, "check", "yang-baxter")
    assert not uqsl2.check_yang_baxter()
    assert code == 1
    assert json.loads(out) == {"check": "yang-baxter", "status": "fail", "entry": [1, 1],
                               "left": "(Q^8 - 1)/(Q^5)", "right": "(Q^4 - 1)/(Q)"}


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


def _repeat_first_index(monkeypatch):
    """Patch crystals._on_slice so that each result repeats its first index at position 1."""
    on_slice = crystals._on_slice

    def repeats_its_first(*args):
        out = on_slice(*args)
        if len(out) > 1:
            out[1] = out[0]
        return out

    monkeypatch.setattr(crystals, "_on_slice", repeats_its_first)


def _clear_crystal_caches():
    for value in vars(crystals).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _swap_first_two_images(monkeypatch, factor):
    """Fault A (factor 0) or B (factor 1): commutor_c swaps the images of domain
    words 0 and 1 when its first (A) or second (B) shape has two factors or more."""
    commutor_c = crystals.commutor_c

    def faulty(a, b):
        m = commutor_c(a, b)
        if len((a, b)[factor]) >= 2 and len(m.index) >= 2:
            index = list(m.index)
            index[0], index[1] = index[1], index[0]
            return crystals.CrystalMap(m.domain, m.codomain, index)
        return m

    monkeypatch.setattr(crystals, "commutor_c", faulty)


FAULT_A, FAULT_B = 0, 1


@pytest.mark.parametrize("factor, argv, digest", [
    (FAULT_A, "check coboundary --max 6",
     "bd1e6dbdc49602190115171edea5faad681092e945333f77edf79df8f578321d"),
    (FAULT_B, "check cactus-action --factors 4 --max 3",
     "bd40947230dc7732ac0709236c68e3007681503923a6310ef8c1fdd5f7c823b4"),
])
def test_a_faulted_commutor_keeps_its_recorded_report(factor, argv, digest, capsys, monkeypatch):
    # the stdout of each failing check, recorded while every word was still
    # enumerated per shape: naming witnesses from their index keeps its bytes
    _clear_crystal_caches()
    _swap_first_two_images(monkeypatch, factor)
    try:
        code, out = invoke(capsys, *argv.split())
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_a_failing_coboundary_check_names_only_its_witnesses(capsys, monkeypatch):
    # each failure names one word, its witness; no word list of a shape is built
    named = []
    word = crystals._word
    monkeypatch.setattr(crystals, "_word", lambda shape, i: named.append(shape) or word(shape, i))
    _clear_crystal_caches()
    _swap_first_two_images(monkeypatch, FAULT_A)
    try:
        code, out = invoke(capsys, "check", "coboundary", "--max", "8")
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    failures = json.loads(out)["failures"]
    assert code == 1 and failures
    assert 0 < len(named) <= len(failures)


def test_the_relation_verifier_names_each_point_at_most_once(monkeypatch):
    # a point that fails many relations is named once per verify_action call
    relations = groups.cactus_relation_instances(4)
    _clear_crystal_caches()
    _swap_first_two_images(monkeypatch, FAULT_B)
    try:
        failed = 0
        for combo in combinations_with_replacement(range(4), 4):
            name, images = crystals.cactus_generator_images(combo)
            calls = Counter()
            failed += len(groups.verify_action(images, relations,
                                               lambda x: calls.update([x]) or name(x)))
            assert all(count == 1 for count in calls.values())
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    assert failed


@pytest.mark.parametrize("argv", [
    "crystal decompose --shape 1,2,0,2 --format text",
    "crystal decompose --shape 1,2,0,2 --format json",
    "crystal graph --shape 2,0,1,1 --format text",
    "crystal graph --shape 2,0,1,1 --format dot",
    "crystal graph --shape 2,0,1,1 --format json",
    "cactus act --shape 1,2,0,2 --p 1 --q 4 --format text",
    "cactus act --shape 1,2,0,2 --p 1 --q 4 --format json",
    "commutor --a 1,2 --b 2,1 --variant c --format json",
    "commutor --a 1,2 --b 2,1 --variant S --format text",
    "check coboundary --max 3",
])
def test_passing_print_path_builds_no_word(argv, capsys, monkeypatch):
    # output is printed from the names of the words, so no word is named
    named = []
    word = crystals._word
    monkeypatch.setattr(crystals, "_word", lambda shape, i: named.append(i) or word(shape, i))
    _clear_crystal_caches()
    assert run(argv.split()) == 0
    assert capsys.readouterr().out
    assert named == []


def test_crystal_invariant_failure_is_a_failed_check(capsys, monkeypatch):
    # a tensor rule that never lowers breaks every chain of length > 1,
    # which must surface as a failed verification naming the word
    table = crystals._table

    def never_lowers(shape):
        f, *rest = table(shape)
        return (-1,) * len(f), *rest

    monkeypatch.setattr(crystals, "_table", never_lowers)
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


def test_sigma_s_mismatch_is_a_failed_check(capsys, monkeypatch):
    # sigma on B(1) (x) B(1) swapping b1(x)b-1 and b-1(x)b1 is involutive,
    # so only the comparison with the commutor built from xi can catch it
    chain_commutor = crystals._chain_commutor
    swapped = crystals.CrystalMap((1, 1), (1, 1), (0, 2, 1, 3))

    def mutant(lam, mu):
        return swapped if (lam, mu) == (1, 1) else chain_commutor(lam, mu)

    monkeypatch.setattr(crystals, "_chain_commutor", mutant)
    _clear_crystal_caches()
    try:
        code = run(["check", "coboundary", "--max", "2"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    failures = json.loads(captured.out)["failures"]
    assert not any(f["law"] == "involution" for f in failures)
    assert [f for f in failures if f["law"] == "sigma-S"] == [
        {"triple": [[1], [1], [0]], "law": "sigma-S", "witness": "b-1⊗b1"}]


def test_two_chains_off_the_ladder_are_a_failed_check(capsys, monkeypatch):
    # three components of weight 1 on B(1) (x) B(2) leave no unique
    # isomorphism; that is a broken invariant, not a usage error
    chains = crystals._chains

    def off_ladder(shape):
        return ((1, (0, 1)), (1, (2, 3)), (1, (4, 5))) if shape == (1, 2) else chains(shape)

    monkeypatch.setattr(crystals, "_chains", off_ladder)
    _clear_crystal_caches()
    try:
        code = run(["commutor", "--a", "1", "--b", "2"])
    finally:
        monkeypatch.undo()
        _clear_crystal_caches()
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert ("qcactus: verification failed: the components of (1, 2) have highest "
            "weights [1, 1, 1], not [3, 1]") in captured.err


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


def test_calibration_failure_is_a_failed_verification(capsys, monkeypatch):
    # a construction that drifts from the frozen V_1 (x) V_1 braiding is a
    # failed verification, reported in one line and not as a traceback;
    # _calibration and _flip_r must not keep a result across the fault
    monkeypatch.setattr(uqsl2, "_reference_flip_r", lambda: uqsl2.QMatrix.identity(4))
    _clear_uqsl2_caches()
    try:
        code = run(["rmatrix", "--m", "1", "--n", "1"])
    finally:
        monkeypatch.undo()
        _clear_uqsl2_caches()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("qcactus: verification failed: computed braiding on V_1 (x) V_1 "
                            "differs from the frozen reference at entry (0, 0): Q, not 1\n")


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


@pytest.mark.parametrize("count", ["1", "0", "-2"])
def test_check_cactus_action_rejects_fewer_than_two_factors(capsys, count):
    with pytest.raises(SystemExit) as exc:
        run(["check", "cactus-action", "--factors", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --factors: need at least 2 factors" in captured.err


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


def _fresh(args, **kw):
    """A fresh interpreter running `python args...` from this checkout's src, at 80 columns."""
    src = str(Path(qcactus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60, **kw)


# Run one command in a fresh interpreter, stdout discarded, and print its
# exit status and the qcactus modules it loaded.
_LOADED_BY = """
import os, sys
from qcactus import cli
argv = {argv!r}
code = 0
cli.build_parser()
if argv is not None:
    sys.stdout = open(os.devnull, "w")
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout = sys.__stdout__
print(code, *sorted(m.partition(".")[2] for m in sys.modules if m.startswith("qcactus.")))
print(*sorted({{"fractions", "decimal"}} & set(sys.modules)))
"""


def _loaded_by(argv):
    """The two lines _LOADED_BY prints for one command in a fresh interpreter."""
    argv = None if argv is None else argv.split()
    proc = _fresh(["-c", _LOADED_BY.format(argv=argv)], text=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stderr
    return lines


@pytest.mark.parametrize("argv, loaded", [
    (None, "0 cli"),
    ("crystal graph --shape 1,1", "0 cli crystals"),
    ("crystal decompose --shape 1,1", "0 cli crystals"),
    ("commutor --a 1 --b 1", "0 cli crystals"),
    ("cactus act --shape 1,1 --p 1 --q 2", "0 cli crystals"),
    ("check coboundary --max 1", "0 cli crystals"),
    ("check braiding-obstruction", "0 cli crystals"),
    ("check cactus-action --factors 3 --max 1", "0 cli crystals groups"),
    ("rmatrix --m 1 --n 1", "0 cli qexact uqsl2"),
    ("check yang-baxter", "0 cli qexact uqsl2"),
    ("check kt07 --max 0", "0 cli crystals qexact uqsl2"),
    # a usage error raised inside the crystal layer still loads no uqsl2
    ("cactus act --shape 1,1 --p 2 --q 1", "2 cli crystals"),
])
def test_each_command_loads_only_its_layers(argv, loaded):
    # a crystal command must not pay for compiling qexact and uqsl2
    assert _loaded_by(argv)[0].split() == loaded.split()


@pytest.mark.parametrize("argv, loaded", [
    (None, ""),
    ("rmatrix --m 2 --n 1", ""),
    ("rmatrix --m 1 --n 1 --frame s2", ""),
    ("rmatrix --m 2 --n 1 --unitarize", ""),
    ("check yang-baxter", ""),
    # the lattice reduction compares the int parts of each constant term
    ("check kt07 --max 1", ""),
])
def test_only_kt07_loads_fractions(argv, loaded):
    # named when check kt07 still loaded it; now no command does: they
    # compute and print on ints, so they skip importing fractions, and with
    # it decimal and numbers
    assert _loaded_by(argv)[1].split() == loaded.split()


# -- the process entry point ------------------------------------------------------

@pytest.mark.parametrize("outcome", [0, 1, 2, SystemExit(2), RuntimeError("boom")],
                         ids=["0", "1", "2", "argparse-exit", "error"])
def test_main_exits_with_run_and_then_freezes_once(outcome, monkeypatch):
    calls = []

    def fake_run():
        calls.append("run")
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(BaseException) as info:
        cli.main()
    if isinstance(outcome, BaseException):
        assert info.value is outcome
    else:
        assert type(info.value) is SystemExit and info.value.code == outcome
    assert calls == ["run", "freeze"]


def test_run_leaves_the_collector_unfrozen():
    # library callers keep Python's normal teardown: only main freezes
    code = ("import contextlib, gc, io\n"
            "from qcactus import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.run(['check', 'yang-baxter'])\n"
            "print(status, gc.get_freeze_count())\n")
    proc = _fresh(["-c", code], text=True)
    assert proc.stdout == "0 0\n", proc.stderr


_HELP = """\
usage: qcactus [-h] {crystal,commutor,cactus,rmatrix,check} ...

exact braidings and cactus commutors for sl2 crystals and modules

positional arguments:
  {crystal,commutor,cactus,rmatrix,check}
    crystal             crystal graphs and decompositions
    commutor            the commutor between two shapes
    cactus              cactus group actions
    rmatrix             braiding matrices, optionally unitarized
    check               verification suites

options:
  -h, --help            show this help message and exit
"""


# status, stdout and stderr of `python -m qcactus.cli ARGS`, recorded with
# Python's normal teardown: freezing the heap at exit must not change a byte
@pytest.mark.parametrize("argv, status, out, err", [
    ("check yang-baxter", 0, '{\n  "check": "yang-baxter",\n  "status": "pass"\n}\n', ""),
    ("cactus act --shape 1,1 --p 2 --q 1", 2, "",
     "qcactus: error: need 1 <= p <= q <= 2, got (2,1)\n"),
    ("rmatrix --m 100000 --n 0", 2, "",
     "qcactus: error: module of shape (100000,) has dimension 100001: "
     "10000200001 dense matrix entries, over the budget of 1048576\n"),
    ("check kt07 --max -1", 2, "",
     "usage: qcactus check kt07 [-h] [--max MAX] [-o OUTPUT]\n"
     "qcactus check kt07: error: argument --max: weight bound must be nonnegative\n"),
    ("--help", 0, _HELP, ""),
])
def test_launch_output_is_unchanged(argv, status, out, err):
    proc = _fresh(["-m", "qcactus.cli", *argv.split()])
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out.encode(), err.encode())


def test_launch_output_file_matches_stdout(tmp_path):
    argv = ["-m", "qcactus.cli", "rmatrix", "--m", "2", "--n", "1"]
    path = tmp_path / "r.json"
    to_file = _fresh(argv + ["-o", str(path)])
    to_stdout = _fresh(argv)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert path.read_bytes() == to_stdout.stdout
    assert hashlib.sha256(to_stdout.stdout).hexdigest() == (
        "075061cc6a93fce8d74b796e5dbd58bbd59ee5a5e1d320d8152f62f2ce39923c")
