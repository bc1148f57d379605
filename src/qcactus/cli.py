"""Command line interface.

Subcommands expose crystal graphs, commutors, braiding matrices and the
verification suites.  Exit status is 0 on success or an empty failure
report, 1 when a verification fails, 2 on usage errors.  argparse checks
every argument of a ``check`` before it runs, so an error a layer raises
during a check is a failed verification, never a usage error; an output
file that cannot be written is a usage error everywhere, and so is a
check bound whose largest shape or cactus relation list is over the
budget, refused before the check starts.  Output goes to
stdout unless -o/--output is given; relative output paths are resolved
against $QCACTUS_OUTDIR when it is set.

``main`` is the process entry point (``python -m qcactus.cli`` and the
``qcactus`` script): it exits with ``run``'s status and freezes the heap on
the way out, so the interpreter's last garbage collection has nothing to
scan.  Call ``run(argv)`` to stay in-process; it returns the status and
leaves the collector as it found it.
"""

import argparse
import gc
import json
import os
import sys
from itertools import combinations_with_replacement
from math import comb

# each command imports only the layers it runs, so that a crystal command
# never loads qexact or uqsl2 and rmatrix never loads crystals or groups
from . import VerificationError, _WORD_BUDGET, _shape


def _parse_shape(text: str) -> tuple:
    try:
        return _shape(int(part) for part in text.split(","))
    except ValueError as exc:  # an entry that is not an int, or the shape rule
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}; expected e.g. 1,2,1")


def _int_at_least(low: int, noun: str, too_small: str):
    """An argparse type: the int of the text, refused below ``low`` with ``too_small``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {noun} {text!r}; expected an integer")
        if value < low:
            raise argparse.ArgumentTypeError(too_small)
        return value
    return parse


# a negative bound selects no cases, and a check over no cases proves nothing
_weight_bound = _int_at_least(0, "weight bound", "weight bound must be nonnegative")
# the cactus group on fewer than two fruits has no generator to check
_factor_count = _int_at_least(2, "factor count", "need at least 2 factors")


class _UsageError(Exception):
    """A usage error found after parsing, reported by run() with exit status 2: an
    output file that cannot be written, or a check bound over the budget."""


def _refuse_over_budget(args, power: int, largest: str) -> None:
    """Refuse, before any work, a check whose largest case allocates (max+1)^power.

    That is the word count of its largest shape, or the entry count of its
    largest dense matrix; over qcactus._WORD_BUDGET the layer would refuse
    it only after every smaller case had run.  Total time is not bounded:
    a large bound is a legitimate slow run.  At max >= 1 a power over 20
    is already over 2^20, so the power is capped at 21 and the int stays
    small whatever --factors is.
    """
    if (args.max + 1) ** min(power, 21) > _WORD_BUDGET:
        raise _UsageError(f"{largest}: over the budget of {_WORD_BUDGET}")


def _emit(text: str, args) -> None:
    path = getattr(args, "output", None)
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    outdir = os.environ.get("QCACTUS_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_report(name: str, ok: bool, payload: dict, args) -> int:
    report = {"check": name, "status": "pass" if ok else "fail"}
    report.update(payload)
    _emit(json.dumps(report, indent=2), args)
    return 0 if ok else 1


def _cmd_crystal_graph(args) -> int:
    from . import crystals

    if args.format == "dot":
        _emit(crystals.crystal_dot(args.shape), args)
        return 0
    names = crystals._names(args.shape)
    arrows = list(zip(names, crystals._table(args.shape)[0]))
    if args.format == "json":
        data = {
            "shape": list(args.shape),
            "nodes": names,
            "edges": [[name, names[j]] for name, j in arrows if j >= 0],
        }
        _emit(json.dumps(data, indent=2), args)
    else:
        _emit("\n".join(f"{name} -> {names[j] if j >= 0 else 0}" for name, j in arrows), args)
    return 0


def _cmd_crystal_decompose(args) -> int:
    from . import crystals

    names = crystals._names(args.shape)
    comps = [(hw, [names[i] for i in chain]) for hw, chain in crystals._chains(args.shape)]
    if args.format == "json":
        data = {
            "shape": list(args.shape),
            "components": [
                {"highest_weight": hw, "source": elements[0], "elements": elements}
                for hw, elements in comps
            ],
        }
        _emit(json.dumps(data, indent=2), args)
    else:
        lines = [f"highest weight {hw}: " + " -> ".join(elements) for hw, elements in comps]
        _emit("\n".join(lines), args)
    return 0


def _map_lines(m):
    """"w -> m(w)" for each domain word w of a crystal map, sorted by the name of w."""
    from . import crystals

    dom, cod = crystals._names(m.domain), crystals._names(m.codomain)
    return [f"{dom[i]} -> {cod[m.index[i]]}" for i in sorted(range(len(dom)), key=dom.__getitem__)]


def _cmd_commutor(args) -> int:
    from . import crystals

    builder = crystals.commutor_c if args.variant == "c" else crystals.commutor_S
    m = builder(args.a, args.b)
    if args.format == "json":
        _emit(m.to_json(), args)
    else:
        _emit("\n".join(_map_lines(m)), args)
    return 0


def _cmd_cactus_act(args) -> int:
    from . import crystals

    m = crystals.cactus_action(args.shape, args.p, args.q)
    if args.format == "json":
        _emit(m.to_json(), args)
    else:
        lines = [f"shape {args.shape} -> {m.codomain}"] + _map_lines(m)
        _emit("\n".join(lines), args)
    return 0


def _cmd_rmatrix(args) -> int:
    from . import uqsl2

    vm = uqsl2.irreducible(args.m)
    vn = uqsl2.irreducible(args.n)
    frame = args.frame
    if args.unitarize:
        mat = uqsl2.unitarized_matrix(vm, vn, frame)
    else:
        mat = uqsl2.braiding_matrix(vm, vn, frame)
    if args.format == "json":
        _emit(mat.to_json(frame=frame), args)
    else:
        _emit(str(mat), args)
    return 0


def _cmd_check_coboundary(args) -> int:
    from . import crystals

    b = args.max
    _refuse_over_budget(args, 3, f"--max {b} reaches the shape ({b}, {b}, {b}) of {b + 1}^3 words")
    report = crystals.check_coboundary(crystals.weight_bounded_triples(args.max))
    return _emit_report("coboundary", report.ok, report.as_dict(), args)


def _cmd_check_cactus_action(args) -> int:
    from . import crystals, groups

    bound = args.max
    factors = args.factors
    _refuse_over_budget(args, factors, f"--factors {factors} --max {bound} reaches a shape of "
                        f"{factors} factors of weight {bound}, {bound + 1}^{factors} words")
    # C(n,4) + C(n+2,4) relations: at --max 0 the word count is 1 for any n
    count = comb(factors, 4) + comb(factors + 2, 4)
    if count > _WORD_BUDGET:
        raise _UsageError(f"--factors {factors} has {count} cactus relations: "
                          f"over the budget of {_WORD_BUDGET}")
    relations = groups.cactus_relation_instances(factors)
    # distinct multisets suffice: each set of generator images acts on the
    # union of all reorderings of its base shape
    failures = []
    checked = 0
    for combo in combinations_with_replacement(range(bound + 1), factors):
        name, images = crystals.cactus_generator_images(combo)
        for f in groups.verify_action(images, relations, name):
            # words of different shapes in one orbit can print alike
            failures.append(dict(f.as_dict(), shape=list(f.witness.shape)))
        checked += 1
    payload = {"factors": factors, "max_weight": bound, "base_shapes": checked,
               "failures": failures}
    return _emit_report("cactus-action", not failures, payload, args)


def _cmd_check_obstruction(args) -> int:
    from . import crystals

    witness = crystals.braiding_obstruction()
    # a confirmed obstruction is the expected outcome
    return _emit_report("braiding-obstruction", witness.distinct, witness.as_dict(), args)


def _cmd_check_kt07(args) -> int:
    from . import uqsl2

    b = args.max
    _refuse_over_budget(args, 4, f"--max {b} reaches V_{b}⊗V_{b}, of dimension {b + 1}^2 "
                        f"and {b + 1}^4 dense matrix entries")
    results = []
    ok = True
    for m in range(args.max + 1):
        for n in range(args.max + 1):
            try:
                pair = uqsl2.verify_kt07(m, n).as_dict()
            except (uqsl2.LatticeError, uqsl2.UnitarizationError) as exc:
                # a failed verification, not a usage error; the text names the witness
                pair = {"m": m, "n": n, "ok": False, "error": str(exc)}
            ok = ok and pair["ok"]
            results.append(pair)
    return _emit_report("kt07", ok, {"max_weight": args.max, "pairs": results}, args)


def _cmd_check_yang_baxter(args) -> int:
    from . import uqsl2

    witness = uqsl2._yang_baxter_witness()
    if witness is None:
        return _emit_report("yang-baxter", True, {}, args)
    (i, j), left, right = witness
    return _emit_report("yang-baxter", False,
                        {"entry": [i, j], "left": str(left), "right": str(right)}, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcactus",
        description="exact braidings and cactus commutors for sl2 crystals and modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", help="write to a file instead of stdout")

    crystal = sub.add_parser("crystal", help="crystal graphs and decompositions")
    crystal_sub = crystal.add_subparsers(dest="subcommand", required=True)

    graph = crystal_sub.add_parser("graph", help="emit a crystal graph")
    graph.add_argument("--shape", type=_parse_shape, required=True)
    graph.add_argument("--format", choices=["dot", "json", "text"], default="dot")
    add_output(graph)
    graph.set_defaults(func=_cmd_crystal_graph)

    dec = crystal_sub.add_parser("decompose", help="connected components of a shape")
    dec.add_argument("--shape", type=_parse_shape, required=True)
    dec.add_argument("--format", choices=["json", "text"], default="text")
    add_output(dec)
    dec.set_defaults(func=_cmd_crystal_decompose)

    comm = sub.add_parser("commutor", help="the commutor between two shapes")
    comm.add_argument("--a", type=_parse_shape, required=True)
    comm.add_argument("--b", type=_parse_shape, required=True)
    comm.add_argument("--variant", choices=["c", "S"], default="c")
    comm.add_argument("--format", choices=["json", "text"], default="json")
    add_output(comm)
    comm.set_defaults(func=_cmd_commutor)

    cactus = sub.add_parser("cactus", help="cactus group actions")
    cactus_sub = cactus.add_subparsers(dest="subcommand", required=True)
    act = cactus_sub.add_parser("act", help="apply a cactus generator to a shape")
    act.add_argument("--shape", type=_parse_shape, required=True)
    act.add_argument("--p", type=int, required=True)
    act.add_argument("--q", type=int, required=True)
    act.add_argument("--format", choices=["json", "text"], default="json")
    add_output(act)
    act.set_defaults(func=_cmd_cactus_act)

    rmat = sub.add_parser("rmatrix", help="braiding matrices, optionally unitarized")
    rmat.add_argument("--m", type=int, required=True)
    rmat.add_argument("--n", type=int, required=True)
    rmat.add_argument("--frame", choices=["s1", "s2"], default="s1")
    rmat.add_argument("--unitarize", action="store_true")
    rmat.add_argument("--format", choices=["json", "text"], default="json")
    add_output(rmat)
    rmat.set_defaults(func=_cmd_rmatrix)

    check = sub.add_parser("check", help="verification suites")
    check_sub = check.add_subparsers(dest="subcommand", required=True)

    cob = check_sub.add_parser("coboundary", help="involutivity and the compatibility square")
    cob.add_argument("--max", type=_weight_bound, default=2)
    add_output(cob)
    cob.set_defaults(func=_cmd_check_coboundary)

    ca = check_sub.add_parser("cactus-action", help="cactus group presentation on tensor words")
    ca.add_argument("--factors", type=_factor_count, default=3)
    ca.add_argument("--max", type=_weight_bound, default=2)
    add_output(ca)
    ca.set_defaults(func=_cmd_check_cactus_action)

    obs = check_sub.add_parser("braiding-obstruction", help="reconstruct the no-braiding witness")
    add_output(obs)
    obs.set_defaults(func=_cmd_check_obstruction)

    kt = check_sub.add_parser("kt07", help="reduced unitarized braiding vs signed commutor")
    kt.add_argument("--max", type=_weight_bound, default=3)
    add_output(kt)
    kt.set_defaults(func=_cmd_check_kt07)

    yb = check_sub.add_parser("yang-baxter", help="the braid relation for the braiding")
    add_output(yb)
    yb.set_defaults(func=_cmd_check_yang_baxter)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"qcactus: error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ValueError) as exc:
        # argparse has validated every argument of a check, so a ValueError
        # there is a failed verification; elsewhere it is a bad argument
        # combination (out-of-range indices, wrong frames)
        if isinstance(exc, ValueError) and args.command != "check":
            print(f"qcactus: error: {exc}", file=sys.stderr)
            return 2
        print(f"qcactus: verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        sys.exit(run())
    finally:
        gc.freeze()  # the process ends here: leave its objects to the OS


if __name__ == "__main__":
    main()
