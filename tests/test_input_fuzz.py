"""Bounded fuzzing of the text parsers and the non-pipeline CLI verbs.

Inputs stay small: degree at most 8, at most 4 generators, texts of at
most 200 characters and integer arguments of at most 10^6 in size, so
nothing allocates a large table.  Group-file junk has no ``r`` and cannot
spell ``degree:``, so a group's degree only comes from the bounded
strategy.  The parsers may only return or raise ValueError; ``cli.main``
may only return 0, 1 or 2, never raise, and print an ``error:`` line
exactly when it returns 2.  ``pipeline`` is fuzzed in test_catalog.py,
and ``reproduce-d1`` takes no input.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symdesign.cli import main
from symdesign.design import Design, construct_design, design_file_text, parse_design_file
from symdesign.group import PermGroup, group_file_text, parse_group_file
from symdesign.perm import Permutation, parse_cycles

from helpers import FIXTURES, cyclic

MAX_TEXT = 200
JUNK = st.text("()[],:;- \t0123456789abcdegvx", max_size=20)
POINTS = st.integers(-1, 9)
CYCLES = st.one_of(
    st.lists(st.lists(POINTS, max_size=5).map(lambda pts: "(" + ",".join(map(str, pts)) + ")"),
             max_size=3).map("".join),
    JUNK,
)
DEGREE = st.one_of(st.integers(-1, 8).map(str), st.text("ab -:", max_size=3))
NUMBER = st.one_of(st.integers(-3, 200), st.integers(-10**6, 10**6)).map(str) \
    | st.text("-0123456789x", max_size=6)
BLOCK = st.one_of(st.lists(st.integers(1, 8), min_size=1, max_size=4),
                  st.lists(POINTS, max_size=9)).map(lambda pts: ",".join(map(str, pts))) | JUNK


@st.composite
def random_groups(draw, degree=None):
    if degree is None:
        degree = draw(st.integers(1, 8))
    gens = [Permutation(draw(st.permutations(range(1, degree + 1))))
            for _ in range(draw(st.integers(0, 4)))]
    return PermGroup(gens, degree=degree)


# groups that make designs: with block 1,2,4, F21 and C7 give the Fano plane
GROUPS = st.sampled_from([FIXTURES["F21"][0], cyclic(7), FIXTURES["S4"][0]]) | random_groups()


def _spoil(draw, text):
    """The text as it is, or with one line replaced, inserted or deleted,
    cut to MAX_TEXT characters."""
    lines = text.splitlines()
    where = draw(st.integers(0, len(lines)))
    how = draw(st.integers(0, 7))  # 0 and 5..7 keep the text
    if how == 1:
        lines.insert(where, draw(JUNK))
    elif how == 2 and where < len(lines):
        lines[where] = draw(CYCLES)
    elif how == 3 and where < len(lines):
        del lines[where]
    elif how == 4 and lines:
        lines[0] = f"degree: {draw(DEGREE)}"
    return "\n".join(lines)[:MAX_TEXT]


@st.composite
def group_texts(draw):
    return _spoil(draw, group_file_text(draw(GROUPS)))


@st.composite
def design_texts(draw, group=GROUPS):
    G = draw(group)
    block = draw(st.sampled_from([[1, 2, 4], [1]]) | st.sets(st.integers(1, G.degree), min_size=1))
    block = [x for x in block if x <= G.degree] or [1]
    return _spoil(draw, design_file_text(construct_design(G, block)))


@given(st.text(max_size=MAX_TEXT) | CYCLES, st.integers(-1, 8))
@settings(max_examples=300, deadline=None)
def test_parse_cycles_returns_a_permutation_or_raises_value_error(text, degree):
    try:
        p = parse_cycles(text, degree)
    except ValueError:
        return
    assert isinstance(p, Permutation) and p.degree == degree


@given(group_texts() | st.lists(CYCLES, max_size=5).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_parse_group_file_returns_a_group_or_raises_value_error(text):
    try:
        group, _name = parse_group_file(text)
    except ValueError:
        return
    assert isinstance(group, PermGroup) and 1 <= group.degree <= 8


@given(st.text(max_size=MAX_TEXT) | design_texts())
@settings(max_examples=300, deadline=None)
def test_parse_design_file_returns_a_design_or_raises_value_error(text):
    try:
        design = parse_design_file(text)
    except ValueError:
        return
    assert isinstance(design, Design)


# Placeholders in a drawn argv for the files the test writes under tmp_path.
G_FILE, H_FILE, D_FILE, OUT_FILE = "{G}", "{H}", "{D}", "{OUT}"


@st.composite
def verb_argvs(draw):
    """(argv, group text, second group text, design text) for one verb."""
    verb = draw(st.sampled_from([
        "order", "orbits", "subdegrees", "blocks", "coset-action", "search-params",
        "classify-type", "derive-cdl", "construct-design", "verify-design",
        "flag-transitive",
    ]))
    if verb in ("order", "blocks"):
        argv = [verb, G_FILE]
    elif verb == "orbits":
        argv = [verb, G_FILE] + (["--under", H_FILE] if draw(st.booleans()) else [])
    elif verb == "subdegrees":
        argv = [verb, G_FILE, "--point", draw(NUMBER)]
    elif verb == "coset-action":
        argv = [verb, G_FILE, H_FILE, "--out", OUT_FILE]
    elif verb == "search-params":
        argv = [verb, "--v", draw(NUMBER), "--m-order", draw(NUMBER)]
    elif verb in ("classify-type", "derive-cdl"):
        argv = [verb, "--v", draw(NUMBER), "--k", draw(NUMBER), "--lambda", draw(NUMBER)]
    elif verb == "construct-design":
        argv = [verb, G_FILE, "--block", draw(BLOCK), "--out", OUT_FILE]
    elif verb == "verify-design":
        argv = [verb, D_FILE]
    else:
        argv = [verb, D_FILE, G_FILE] + [f for f in ("--anti", "--force") if draw(st.booleans())]
    G = draw(GROUPS)
    # a subgroup of G, another group of its degree, or a group of any degree
    H = draw(st.sampled_from([
        PermGroup([g * g for g in G.generators], degree=G.degree),
        G.point_stabilizer(1),
    ]) | random_groups(G.degree) | random_groups())
    return (argv, _spoil(draw, group_file_text(G)), _spoil(draw, group_file_text(H)),
            draw(design_texts(st.just(G) | GROUPS)))


@given(verb_argvs())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_verbs_exit_0_1_or_2(tmp_path, case):
    argv, group_text, second_text, design_text = case
    paths = {G_FILE: tmp_path / "g.grp", H_FILE: tmp_path / "h.grp",
             D_FILE: tmp_path / "d.design", OUT_FILE: tmp_path / "out"}
    paths[G_FILE].write_text(group_text)
    paths[H_FILE].write_text(second_text)
    paths[D_FILE].write_text(design_text)
    argv = [str(paths.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == ("error:" in err.getvalue())
