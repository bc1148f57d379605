"""The operations each workload runs, drawn by seed from fixed pools.

An operation is one cold invocation: a ``qcactus`` command line
(``kind == "cli"``), a library call made by ``child.py``
(``kind == "lib"``), or the no-op start-up that ``setup_s`` times
(``kind == "setup"``).  The seed only picks orientations, positions of
the 2s in a shape, and draws from pools whose members cost about the
same, so every op list of a workload has the same sequence of cost
classes.  The first operation of every list is the headline.
"""

import random
from itertools import combinations
from typing import NamedTuple


class Op(NamedTuple):
    kind: str
    args: tuple
    cost_class: str

    @property
    def key(self) -> str:
        """Name of the operation in ``golden.json``."""
        return " ".join((self.kind,) + self.args)


SETUP = Op("setup", (), "setup")

# Composite pairs M (x) N for library unitarization, as "shape:shape".
COMPOSITES = ("1:1,1", "1,1:1", "2:1,1", "1,1:2", "1,1:1,1")


def _cli(cost_class, *args):
    return Op("cli", tuple(args), cost_class)


def _lib(cost_class, *args):
    return Op("lib", tuple(args), cost_class)


def _orientation(rng, m, n):
    return (m, n) if rng.random() < 0.5 else (n, m)


def _shape(length, twos):
    """A shape of 1s with 2s at the given positions, as CLI text."""
    return ",".join("2" if i in twos else "1" for i in range(length))


# -- kt07: the unitarization wall ---------------------------------------------

def _kt07_unitarize(m, n):
    return _cli("unitarize-3x2", "rmatrix", "--m", str(m), "--n", str(n), "--unitarize")


def _composite(pair):
    left, right = pair.split(":")
    return _lib("composite", "unitarize", left, right)


def _kt07(rng):
    m, n = _orientation(rng, 3, 2)
    first, second = rng.sample(COMPOSITES, 2)
    return [
        _cli("kt07-check", "check", "kt07", "--max", "3"),
        _kt07_unitarize(m, n),
        _composite(first),
        _composite(second),
        _lib("cactus-unitarized", "cactus-unitarized"),
    ]


# -- braid: flip . R without unitarization -------------------------------------

def _rmatrix(cost_class, m, n):
    return _cli(cost_class, "rmatrix", "--m", str(m), "--n", str(n))


def _braid(rng):
    return [
        _rmatrix("rmatrix-6x6", 6, 6),
        _rmatrix("rmatrix-6x5", *_orientation(rng, 6, 5)),
        _rmatrix("rmatrix-6x4", *_orientation(rng, 6, 4)),
        _cli("yang-baxter", "check", "yang-baxter"),
    ]


# -- crystal: the crystal side, no qexact -------------------------------------

def _decompose(twos):
    return _cli("decompose-10", "crystal", "decompose", "--shape", _shape(10, twos),
                "--format", "json")


def _act(twos):
    return _cli("act-8", "cactus", "act", "--shape", _shape(8, twos), "--p", "1", "--q", "8")


def _graph(twos):
    return _cli("graph-8", "crystal", "graph", "--shape", _shape(8, twos), "--format", "json")


def _crystal(rng):
    return [
        _cli("cactus-action", "check", "cactus-action", "--factors", "4", "--max", "3"),
        _cli("coboundary", "check", "coboundary", "--max", "5"),
        _decompose(set(rng.sample(range(10), 3))),
        _act(set(rng.sample(range(8), 2))),
        _graph(set(rng.sample(range(8), 1))),
    ]


WORKLOADS = {"kt07": _kt07, "braid": _braid, "crystal": _crystal}


def ops_for(workload: str, seed: int) -> list:
    """The operation list of a workload for a seed; the first is the headline."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def pool(workload: str) -> list:
    """Every operation that some seed can draw for a workload."""
    if workload == "kt07":
        fixed = ops_for("kt07", 0)
        return ([fixed[0], _kt07_unitarize(3, 2), _kt07_unitarize(2, 3)]
                + [_composite(p) for p in COMPOSITES] + [fixed[-1]])
    if workload == "braid":
        return [_rmatrix("rmatrix-6x6", 6, 6),
                _rmatrix("rmatrix-6x5", 6, 5), _rmatrix("rmatrix-6x5", 5, 6),
                _rmatrix("rmatrix-6x4", 6, 4), _rmatrix("rmatrix-6x4", 4, 6),
                _cli("yang-baxter", "check", "yang-baxter")]
    if workload == "crystal":
        fixed = ops_for("crystal", 0)
        return (fixed[:2]
                + [_decompose(set(c)) for c in combinations(range(10), 3)]
                + [_act(set(c)) for c in combinations(range(8), 2)]
                + [_graph({i}) for i in range(8)])
    raise KeyError(workload)
