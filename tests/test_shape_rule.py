"""One shape rule across the layers.

A shape, the highest weights of the tensor factors, is checked by
``qcactus._shape`` alone: the crystal words, the symbolic modules and the
command line's ``--shape`` accept the same values and refuse the rest with
the same exception type, whatever equal shape was cached before.
"""

import argparse

from hypothesis import given, settings, strategies as st
import pytest

import qcactus
from qcactus import cli, crystals, uqsl2

# ints, negatives, bools, floats and strings, in tuples of up to four, the empty one included
ENTRIES = st.one_of(
    st.integers(-2, 3),
    st.booleans(),
    st.floats(-2, 3, allow_nan=False),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.text("ab", min_size=1, max_size=2),
)
SHAPES = st.lists(ENTRIES, max_size=4).map(tuple)


def _refusal(build, value):
    """The type of the error build(value) raises, or None when it accepts the value."""
    try:
        build(value)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SHAPES)
def test_the_layers_accept_and_refuse_the_same_shapes(value):
    equal = tuple(int(n) for n in value if type(n) is not str and n == int(n) and n >= 0)
    if equal and len(equal) == len(value):
        crystals.words(equal)  # an equal int shape is cached first
    refusal = _refusal(qcactus._shape, value)
    assert refusal in (None, TypeError, ValueError)
    assert _refusal(crystals.words, value) is refusal
    assert _refusal(uqsl2.module_for_shape, value) is refusal
    # the command line parses the text form, and takes it exactly when every entry is an int
    try:
        parsed = cli._parse_shape(",".join(map(str, value)))
    except argparse.ArgumentTypeError:
        parsed = None
    assert parsed == (None if refusal else value)


def test_a_shape_over_the_word_budget_is_refused_before_any_table():
    budget = qcactus._WORD_BUDGET
    over = f"shape has {budget + 1} words, over the budget of {budget}"
    # the words of a shape are the product of its n + 1; nothing is built here
    for value in ((budget,), (0, budget, 0)):
        with pytest.raises(ValueError, match=over):
            qcactus._shape(value)
        with pytest.raises(ValueError, match=over):
            crystals.words(value)
        with pytest.raises(ValueError, match=over):
            uqsl2.module_for_shape(value)
    with pytest.raises(ValueError, match=f"shape has {2 * budget} words"):
        qcactus._shape((1023, 1023, 1))
    assert qcactus._shape((1023, 1023)) == (1023, 1023)
    with pytest.raises(argparse.ArgumentTypeError,
                       match="bad shape '99999999': shape has 100000000 words, over the budget"):
        cli._parse_shape("99999999")
