"""Property tests for the two text formats: any text either parses or fails
with an error that names a line of the file, and a serialized inequality
parses back to itself."""
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import bellscope as bs
from bellscope.quantum import parse_measurements

# derandomize keeps tier-1 deterministic (and implies no example database).
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)
LINE_ERROR = re.compile(r"^line (\d+): ")

# Near-valid lines mixed with arbitrary text, so generated files get past the
# header checks and reach the later errors of each parser.
small = st.integers(-2, 4).map(str)
# Junk keeps to characters the parsers treat specially: signs, exponents,
# whitespace, comment marks, non-ASCII digits and extra line breaks.
junk = st.text(alphabet="01-+.eEx#j \t\x0b\x1c\u2028\u0661\uff11", max_size=10)
number_token = st.one_of(small, st.sampled_from(["x", "0.5", "1e3", "--1", "nan", "inf"]), junk)
cg_line = st.one_of(
    st.sampled_from(["", "# comment", "   "]),
    st.builds("cg {} {} {}".format, number_token, number_token, number_token),
    st.lists(number_token, max_size=6).map(" ".join),
    junk,
)
float_token = st.one_of(st.floats(-2, 2).map(repr), st.sampled_from(["nan", "inf", "1e400", "x"]))
meas_line = st.one_of(
    st.sampled_from(["", "# comment"]),
    st.builds("effect {} {} {}".format, st.sampled_from(["A", "B", "C"]),
              st.one_of(small, junk), st.sampled_from(["proj", "complement", "zero",
                                                       "identity", "bogus"])),
    st.lists(float_token, max_size=8).map(" ".join),
    junk,
)


def assert_names_a_line(exc, text):
    match = LINE_ERROR.match(str(exc))
    assert match, f"error without a line number: {exc}"
    assert 1 <= int(match.group(1)) <= max(1, len(text.splitlines()))


@EXAMPLES
@given(st.lists(cg_line, max_size=8).map("\n".join))
def test_parse_cg_parses_or_names_a_line(text):
    try:
        bs.parse_cg(text)
    except bs.CgParseError as exc:
        assert_names_a_line(exc, text)


@EXAMPLES
@given(st.lists(meas_line, max_size=10).map("\n".join),
       st.none() | st.integers(1, 3), st.none() | st.integers(1, 3))
def test_parse_measurements_parses_or_names_a_line(text, m_a, m_b):
    try:
        parse_measurements(text, m_a, m_b)
    except bs.CgParseError as exc:
        assert_names_a_line(exc, text)


@st.composite
def inequalities(draw):
    m_a, m_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    coeff = st.integers(-10**20, 10**20)
    row = lambda n: st.lists(coeff, min_size=n, max_size=n).map(tuple)
    joint = draw(st.lists(row(m_b), min_size=m_a, max_size=m_a).map(tuple))
    return bs.BellInequality(draw(row(m_a)), draw(row(m_b)), joint, draw(coeff))


@EXAMPLES
@given(inequalities())
def test_serialize_cg_round_trips(ineq):
    assert bs.parse_cg(bs.serialize_cg(ineq)) == ineq
