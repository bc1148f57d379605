"""Run one benchmark operation in this process.

    python3 perfbench/child.py [--trace FILE --op-id N] cli ARGV...
    python3 perfbench/child.py [--trace FILE --op-id N] lib unitarize SHAPE SHAPE
    python3 perfbench/child.py [--trace FILE --op-id N] lib cactus-unitarized

``cli`` runs the ``qcactus`` command line in-process; ``lib`` runs a
library call and prints its result.  With ``--trace`` the layers are
wrapped by ``tracer.py`` before the operation starts, and the trace is
written to FILE when it ends.  Untraced ``cli`` operations are run by the
benchmark as ``python3 -m qcactus.cli`` instead, exactly as users run it.
"""

import json
import sys


def _shape(text):
    return tuple(int(part) for part in text.split(","))


def lib_unitarize(left, right):
    from qcactus import uqsl2

    mat = uqsl2.unitarized_matrix(uqsl2.module_for_shape(_shape(left)),
                                  uqsl2.module_for_shape(_shape(right)))
    sys.stdout.write(mat.to_json() + "\n")
    return 0


def lib_cactus_unitarized():
    from qcactus import uqsl2

    ok = uqsl2.check_cactus_relation_unitarized()
    print(json.dumps({"check": "cactus-relation-unitarized", "status": "pass" if ok else "fail"}))
    return 0 if ok else 1


LIB = {"unitarize": lib_unitarize, "cactus-unitarized": lib_cactus_unitarized}


def main(argv):
    trace_path = op_id = None
    if argv[:1] == ["--trace"]:
        trace_path, op_id, argv = argv[1], int(argv[3]), argv[4:]
    kind, args = argv[0], argv[1:]
    import qcactus
    from qcactus import cli

    if trace_path is None:
        return cli.run(args) if kind == "cli" else LIB[args[0]](*args[1:])
    from tracer import Tracer

    tracer = Tracer(op_id)
    tracer.install(qcactus)
    try:
        if kind == "cli":
            return cli.run(args)  # cli.run is now the traced root
        return tracer.run_root(f"lib.{args[0]}", "lib", LIB[args[0]], *args[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
