"""Exact braidings and cactus commutors for quantized sl2 and its crystals.

The package has four layers:

  qexact   -- exact arithmetic in the rational functions of q^(1/2);
  groups   -- braid and cactus words, their symmetric group images, and
              a generic relation verifier for concrete actions;
  crystals -- sl2 chain crystals, tensor words, the two commutors, the
              cactus group action, coboundary checks, and the braiding
              obstruction;
  uqsl2    -- symbolic modules, the R-matrix braiding, Drinfel'd style
              unitarization, and the reduction at q = infinity that
              recovers the signed crystal commutor.

Importing the package loads no layer.  A layer loads on first use of its
name or of a name the package re-exports from it (``qcactus.uqsl2``,
``qcactus.QMatrix``), and ``from qcactus import *`` loads all four.  The
crystal side does not need the quantum one: ``groups`` and ``crystals``
import only the standard library, ``Record`` and the shape rule
``_shape``, and ``uqsl2`` imports ``crystals`` only to compare with the
crystal commutor.

A failed verification inside a layer -- a broken crystal invariant, a
drifted reference braiding, a unitarization that fails its exact
self-check -- raises a subclass of ``VerificationError``; the command
line reports it with exit status 1.

The command line entry point lives in qcactus.cli.
"""

from operator import attrgetter
import sys

__version__ = "0.1.0"


class VerificationError(RuntimeError):
    """A verification failed inside a layer; the message names the witness."""


class Record:
    """An immutable value whose fields are its class's ``__slots__``.

    Built by position or keyword in field order, it compares and hashes by
    its fields and prints as ``Name(field=value, ...)``.  Written by hand, so
    that no launch loads ``inspect`` and ``ast`` to generate record classes.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple in one C call; attrgetter of one name returns the bare value
        fields = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            field = fields
            fields = lambda record: (field(record),)
        cls._values = staticmethod(fields)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self):
        """Raise ValueError on field values the record cannot hold."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


_WORD_BUDGET = 1 << 20


def _shape(value) -> tuple:
    """tuple(value) if it is a shape: nonempty, each entry an int (by type, so
    no bool or float) and nonnegative, with at most _WORD_BUDGET = 2^20 words,
    the product of the n + 1; TypeError or ValueError otherwise.  The
    package's one shape rule, applied by every public entry before it reads a
    cache, whose keys compare True == 1.0 == 1, and before any table of the
    shape's words or basis is allocated."""
    shape = tuple(value)
    if not shape:
        raise ValueError("shape must be nonempty: a tensor word has at least one factor")
    words = 1
    for n in shape:  # one pass: this runs at every public crystal call and every CrystalMap
        if type(n) is not int:
            raise TypeError(f"a shape is a tuple of ints, got {shape!r}")
        if n < 0:
            raise ValueError("highest weight must be nonnegative")
        words *= n + 1
    if words > _WORD_BUDGET:
        raise ValueError(f"shape has {words} words, over the budget of {_WORD_BUDGET}")
    return shape


_EXPORTS = {
    "qexact": (
        "QRational",
        "Qpow",
        "qpow",
        "quantum_int",
        "quantum_factorial",
        "is_regular_at_infinity",
        "reduce_mod_qhalf",
        "monomial_sqrt",
        "parse_qrational",
    ),
    "groups": (
        "Permutation",
        "BraidWord",
        "CactusWord",
        "s_hat",
        "cactus_relation_instances",
        "project_to_symmetric",
        "verify_action",
    ),
    "crystals": (
        "ChainElement",
        "TensorWord",
        "CrystalMap",
        "chain_crystal",
        "words",
        "tensor_e",
        "tensor_f",
        "decompose",
        "schutzenberger",
        "commutor_S",
        "commutor_c",
        "cactus_action",
        "check_coboundary",
        "braiding_obstruction",
        "crystal_dot",
    ),
    "uqsl2": (
        "QMatrix",
        "UqModule",
        "irreducible",
        "tensor_module",
        "braiding_matrix",
        "unitarized_matrix",
        "lattice_check_and_reduce",
        "verify_kt07",
    ),
}

# every lazily resolved name, layers included, and the layer that defines it
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in (layer, *names)}

__all__ = ["VerificationError", *_LAYER_OF]


def __getattr__(name):
    # PEP 562: called only for names not yet bound in this module
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, unlike importlib.import_module, is
    # what -X importtime reports, so a layer's load stays visible there
    __import__(f"{__name__}.{layer}")
    module = sys.modules[f"{__name__}.{layer}"]
    value = module if name == layer else getattr(module, name)
    globals()[name] = value  # later lookups find it bound, as an eager import left it
    return value


def __dir__():
    return sorted({*globals(), *__all__})
