"""Command line interface.

Subcommands expose crystal graphs, commutors, braiding matrices and the
verification suites.  Exit status is 0 on success or an empty failure
report, 1 when a verification fails, 2 on usage errors.  Output goes to
stdout unless -o/--output is given; relative output paths are resolved
against $QCACTUS_OUTDIR when it is set.
"""

import argparse
import json
import os
import sys
from itertools import combinations_with_replacement

from . import crystals, groups, uqsl2


def _parse_shape(text: str) -> tuple:
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected e.g. 1,2,1")
    if not shape or any(n < 0 for n in shape):
        raise argparse.ArgumentTypeError("shape entries must be nonnegative integers")
    return shape


def _weight_bound(text: str) -> int:
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight bound {text!r}; expected an integer")
    if bound < 0:
        # a negative bound selects no cases, and a check over no cases proves nothing
        raise argparse.ArgumentTypeError("weight bound must be nonnegative")
    return bound


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
        # reported by run() as a usage error, exit 2
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_report(name: str, ok: bool, payload: dict, args) -> int:
    report = {"check": name, "status": "pass" if ok else "fail"}
    report.update(payload)
    _emit(json.dumps(report, indent=2), args)
    return 0 if ok else 1


def _cmd_crystal_graph(args) -> int:
    if args.format == "dot":
        _emit(crystals.crystal_dot(args.shape), args)
        return 0
    arrows = [(w, crystals.tensor_f(w)) for w in crystals.words(args.shape)]
    if args.format == "json":
        data = {
            "shape": list(args.shape),
            "nodes": [str(w) for w, _fw in arrows],
            "edges": [[str(w), str(fw)] for w, fw in arrows if fw is not None],
        }
        _emit(json.dumps(data, indent=2), args)
    else:
        _emit("\n".join(f"{w} -> {fw}" if fw else f"{w} -> 0" for w, fw in arrows), args)
    return 0


def _cmd_crystal_decompose(args) -> int:
    comps = crystals.decompose(args.shape)
    if args.format == "json":
        data = {
            "shape": list(args.shape),
            "components": [
                {
                    "highest_weight": c.highest_weight,
                    "source": str(c.source),
                    "elements": [str(w) for w in c.elements],
                }
                for c in comps
            ],
        }
        _emit(json.dumps(data, indent=2), args)
    else:
        lines = [
            f"highest weight {c.highest_weight}: "
            + " -> ".join(str(w) for w in c.elements)
            for c in comps
        ]
        _emit("\n".join(lines), args)
    return 0


def _cmd_commutor(args) -> int:
    builder = crystals.commutor_c if args.variant == "c" else crystals.commutor_S
    m = builder(args.a, args.b)
    if args.format == "json":
        _emit(m.to_json(), args)
    else:
        lines = [f"{w} -> {v}" for w, v in sorted(m.items(), key=lambda p: str(p[0]))]
        _emit("\n".join(lines), args)
    return 0


def _cmd_cactus_act(args) -> int:
    m = crystals.cactus_action(args.shape, args.p, args.q)
    if args.format == "json":
        _emit(m.to_json(), args)
    else:
        lines = [f"shape {args.shape} -> {m.codomain}"]
        lines += [f"{w} -> {v}" for w, v in sorted(m.items(), key=lambda p: str(p[0]))]
        _emit("\n".join(lines), args)
    return 0


def _cmd_rmatrix(args) -> int:
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
    report = crystals.check_coboundary(crystals.weight_bounded_triples(args.max))
    return _emit_report("coboundary", report.ok, report.as_dict(), args)


def _cmd_check_cactus_action(args) -> int:
    bound = args.max
    factors = args.factors
    relations = groups.cactus_relation_instances(factors)
    # distinct multisets suffice: each set of generator images acts on the
    # union of all reorderings of its base shape
    failures = []
    checked = 0
    for combo in combinations_with_replacement(range(bound + 1), factors):
        images = crystals.cactus_generator_images(combo)
        failures.extend(f.as_dict() for f in groups.verify_action(images, relations))
        checked += 1
    payload = {"factors": factors, "max_weight": bound, "base_shapes": checked,
               "failures": failures}
    return _emit_report("cactus-action", not failures, payload, args)


def _cmd_check_obstruction(args) -> int:
    witness = crystals.braiding_obstruction()
    # a confirmed obstruction is the expected outcome
    return _emit_report("braiding-obstruction", witness.distinct, witness.as_dict(), args)


def _cmd_check_kt07(args) -> int:
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
    ok = uqsl2.check_yang_baxter()
    return _emit_report("yang-baxter", ok, {}, args)


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
    ca.add_argument("--factors", type=int, default=3)
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
    except (crystals.CrystalInvariantError, uqsl2.UnitarizationError) as exc:
        # a failed verification, not a usage error; the text names the witness
        print(f"qcactus: verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad argument combinations (out-of-range indices, wrong frames)
        print(f"qcactus: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
