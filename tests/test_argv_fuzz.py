"""No command line lets an exception escape.

The argv are built from ``cli.build_parser()`` itself: every subcommand,
its options in their own order (the required ones always, the others at
random) and, for an option with choices, one of them or one bad choice.
Ints are small, shape texts are short or junk, and no output file is
written.  Each argv runs in-process through ``cli.run``, which must
return 0, 1 or 2 or leave through argparse's ``SystemExit`` with 0 or 2.
"""

import argparse
import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from qcactus import cli

BAD_CHOICE = "bogus"


def _commands(parser, path=()):
    """(subcommand path, parser) of every command, with parser None for a bad subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _commands(sub, path + (name,))
    yield path + (BAD_CHOICE,), None


COMMANDS = list(_commands(cli.build_parser()))

SHAPE_TEXTS = st.one_of(
    st.lists(st.integers(-1, 3), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", ",", "1,", "a", "1.0", "1,,2", " 1", "True", "0x1"]),
)


def _values(action):
    """The argv words after one option: none for a flag, else one drawn value."""
    if action.nargs == 0:
        return st.just([])
    if action.choices:
        value = st.sampled_from([*action.choices, BAD_CHOICE])
    elif action.type is cli._parse_shape:
        value = SHAPE_TEXTS
    elif action.dest == "factors":
        # 61 and 10**9 pass the word budget at --max 0 but not the relation budget
        value = st.one_of(st.integers(-1, 4), st.sampled_from([61, 10**9])).map(str)
    else:
        value = st.integers(-2, 3).map(str)
    return value.map(lambda v: [v])


@st.composite
def argvs(draw):
    path, parser = draw(st.sampled_from(COMMANDS))
    argv = list(path)
    for action in parser._actions if parser else ():
        if not action.option_strings or action.dest in ("help", "output"):
            continue
        if action.required or draw(st.booleans()):
            argv += [action.option_strings[-1], *draw(_values(action))]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def _run_one(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.run(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert status in (0, 1, 2), argv


def test_no_argv_lets_an_exception_escape():
    start = time.perf_counter()
    _run_one()
    assert time.perf_counter() - start < 10


def test_the_fuzzer_reaches_every_command():
    paths = {path for path, parser in COMMANDS if parser}
    assert paths == {
        ("crystal", "graph"), ("crystal", "decompose"), ("commutor",), ("cactus", "act"),
        ("rmatrix",), ("check", "coboundary"), ("check", "cactus-action"),
        ("check", "braiding-obstruction"), ("check", "kt07"), ("check", "yang-baxter"),
    }
