"""Tests for the plain-text syntax: parsing, printing, and problem files."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASIS4, MBBA_GENS, PREBASIS7, VARS, pol, problem_text, vec
from modborder.errors import ParseError
from modborder.ring import Poly, TermOrder, Vector
from modborder.textio import (
    format_combination,
    format_modterm,
    format_poly,
    format_term,
    format_vector,
    parse_poly,
    parse_vector,
    read_problem,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_vector_golden():
    v = parse_vector("x^2*e1 - y*e1 + e2", VARS, 2)
    assert v.coeffs == {
        ((2, 0), 1): 1,
        ((0, 1), 1): -1,
        ((0, 0), 2): 1,
    }


def test_parse_spellings_agree():
    assert vec("(-2)*e1 + (3*x - 1)*e2") == vec("-2*e1 + 3*x*e2 - e2")
    assert vec("(x + y)*(x - y)*e1") == vec("x^2*e1 - y^2*e1")
    assert vec("2*3*x*e1") == vec("6*x*e1")
    assert pol("x + -y") == pol("x - y")
    assert pol("--x") == pol("x")


def test_parse_zero():
    assert parse_vector("0", VARS, 2) == Vector.zero(2, 2)
    assert parse_poly("0", VARS) == Poly.zero(2)


def test_parse_fractions_and_powers():
    v = parse_vector("4/3*x^3*y^2*e2", VARS, 2)
    assert v.coeffs == {((3, 2), 2): pytest.approx(4 / 3)}
    assert pol("1/2 + 1/3") == pol("5/6")


def test_parse_inline_comment():
    assert parse_vector("x*e1  # tail note", VARS, 2) == vec("x*e1")


def test_parse_errors():
    with pytest.raises(ParseError, match=r"^component index 3 out of range 1\.\.2$"):
        parse_vector("x*e3", VARS, 2)
    with pytest.raises(ParseError, match=r"^monomial lacks a basis marker e<k>$"):
        parse_vector("x*y", VARS, 2)
    with pytest.raises(ParseError, match=r"^unknown variable 'e1'$"):
        parse_poly("x*e1", VARS)
    with pytest.raises(ParseError, match=r"^unknown variable 'z'$"):
        parse_poly("x + z", VARS)
    with pytest.raises(ParseError, match=r"^trailing input after expression$"):
        parse_vector("e1*e2", VARS, 2)
    with pytest.raises(ParseError, match=r"^zero denominator$"):
        parse_poly("1/0", VARS)
    with pytest.raises(ParseError, match=r"^exponent must be positive$"):
        parse_poly("x^0", VARS)
    with pytest.raises(ParseError, match=r"^unexpected character '@'$"):
        parse_poly("x @ y", VARS)
    with pytest.raises(ParseError, match=r"^expected a denominator$"):
        parse_poly("1/x", VARS)
    with pytest.raises(ParseError, match=r"^expected '\)'$"):
        parse_poly("(x + y", VARS)


def test_parse_error_carries_position():
    with pytest.raises(ParseError, match=r"^line 5, col 3: component index 3") as ei:
        parse_vector("x*e3", VARS, 2, line_no=5)
    assert ei.value.line == 5
    assert ei.value.col == 3


# ---------------------------------------------------------------------------
# printing


def test_format_term():
    assert format_term((0, 0), VARS) == "1"
    assert format_term((1, 0), VARS) == "x"
    assert format_term((2, 1), VARS) == "x^2*y"


def test_format_poly_golden(order):
    p = pol("x^2 - x*y + 2*x - 2/3*y + 2/3")
    assert format_poly(p, VARS, order) == "x^2 - x*y + 2*x - 2/3*y + 2/3"
    assert format_poly(Poly.zero(2), VARS, order) == "0"
    assert format_poly(pol("-2"), VARS, order) == "-2"


def test_format_vector_descends_in_order(order):
    assert format_vector(vec("y*e2 - x*e1"), VARS, order) == "-x*e1 + y*e2"
    assert format_vector(vec("y*e1 + x*e2"), VARS, order) == "x*e2 + y*e1"
    assert format_vector(vec("x*e2 + x*e1"), VARS, order) == "x*e1 + x*e2"
    assert format_vector(Vector.zero(2, 2), VARS, order) == "0"


def test_format_vector_coefficient_styles(order):
    assert format_vector(vec("e1"), VARS, order) == "e1"
    assert format_vector(vec("-e1"), VARS, order) == "-e1"
    assert format_vector(vec("4/3*e1 + 2/3*e2"), VARS, order) == "4/3*e1 + 2/3*e2"
    assert format_vector(vec("-x^2*y*e2"), VARS, order) == "-x^2*y*e2"


def test_format_modterm():
    assert format_modterm(((0, 0), 2), VARS) == "e2"
    assert format_modterm(((2, 0), 1), VARS) == "x^2*e1"
    assert format_modterm(((1, 1), 1), VARS, basename="b") == "x*y*b1"


def test_format_combination(order):
    v = vec(BASIS4[0])
    assert format_combination(v, VARS, order) == "(x + 4/3)*f1 + 2/3*f2"
    assert format_combination(vec("x*e1 - e2"), VARS, order) == "x*f1 - f2"
    assert format_combination(vec("-x*e2"), VARS, order) == "-x*f2"
    assert format_combination(Vector.zero(2, 2), VARS, order) == "0"
    assert format_combination(vec("e1"), VARS, order, basename="g") == "g1"


CANONICAL = [
    "0",
    "e1",
    "-e1",
    "x*e1",
    "4/3*e1 + 2/3*e2",
    "x^2*e1 - y*e1 + e2",
    "-x*e1 + y*e2",
    "x^3*y^2*e2 - 1/2*e1",
]


def test_roundtrip_canonical_strings(order):
    for text in CANONICAL:
        assert format_vector(parse_vector(text, VARS, 2), VARS, order) == text


def test_roundtrip_random_vectors(order):
    rng = random.Random(20)
    for _ in range(80):
        coeffs = {}
        for _ in range(rng.randrange(5)):
            t = (rng.randrange(4), rng.randrange(4))
            k = rng.randrange(1, 3)
            coeffs[(t, k)] = rng.choice([-3, -1, 1, 2]) * rng.choice([1, 2, 3]) / 2
        v = Vector(2, 2, coeffs)
        assert parse_vector(format_vector(v, VARS, order), VARS, 2) == v


# ---------------------------------------------------------------------------
# problem files


def test_read_problem_golden():
    text = "\n".join(
        [
            "# demo input",
            "ring Q[x, y]",
            "rank 2",
            "order degrevlex",
            "",
            "vectors:",
            PREBASIS7[0] + "  # first generator",
            PREBASIS7[1],
            "",
            "syzygy:",
            MBBA_GENS[4],
            "",
            "ideal:",
            "x^2 + x*y",
            "y - 1",
            "",
            "subideal:",
            "x - y",
            "x + y + 1",
        ]
    )
    pf = read_problem(text)
    assert pf.varnames == ["x", "y"]
    assert pf.rank == 2
    assert pf.order == TermOrder("degrevlex")
    assert pf.vectors == [vec(PREBASIS7[0]), vec(PREBASIS7[1])]
    assert pf.syzygy == [vec(MBBA_GENS[4])]
    assert pf.ideal == [pol("x^2 + x*y"), pol("y - 1")]
    assert pf.subideal == [pol("x - y"), pol("x + y + 1")]


def test_read_problem_sections_default_empty():
    pf = read_problem(problem_text("vectors:\nx*e1"))
    assert pf.vectors == [vec("x*e1")]
    assert pf.syzygy == []
    assert pf.ideal == []
    assert pf.subideal == []


def test_read_problem_header_errors():
    with pytest.raises(ParseError, match="file must start with ring, rank, and order"):
        read_problem("ring Q[x,y]\nrank 2\n")
    with pytest.raises(ParseError, match=r"line 1, col 1: expected 'ring Q\["):
        read_problem("ring Z[x,y]\nrank 2\norder lex")
    with pytest.raises(ParseError, match="ring needs at least one variable"):
        read_problem("ring Q[]\nrank 2\norder lex")
    with pytest.raises(ParseError, match="bad variable name '2y'"):
        read_problem("ring Q[x, 2y]\nrank 2\norder lex")
    with pytest.raises(ParseError, match="variable name 'e1' collides with basis"):
        read_problem("ring Q[e1, x]\nrank 2\norder lex")
    with pytest.raises(ParseError, match="duplicate variable name"):
        read_problem("ring Q[x, x]\nrank 2\norder lex")


def test_read_problem_rank_and_order_errors():
    with pytest.raises(ParseError, match=r"line 2, col 1: expected 'rank <positive"):
        read_problem("ring Q[x,y]\nrank 0\norder lex")
    with pytest.raises(ParseError, match="expected 'rank <positive integer>'"):
        read_problem("ring Q[x,y]\nrank two\norder lex")
    with pytest.raises(
        ParseError, match="expected 'order <degrevlex, deglex, lex>'"
    ):
        read_problem("ring Q[x,y]\nrank 2\norder fancy")


def test_read_problem_section_errors():
    with pytest.raises(ParseError, match=r"line 4, col 1: unknown section 'stuff'"):
        read_problem(problem_text("stuff:\nx*e1"))
    with pytest.raises(ParseError, match="duplicate section 'vectors'"):
        read_problem(problem_text("vectors:\nx*e1\nvectors:\ny*e1"))
    with pytest.raises(ParseError, match="expected a section header like 'vectors:'"):
        read_problem(problem_text("x*e1"))


def test_read_problem_entry_error_reports_line():
    text = problem_text("vectors:\nx*e1\nx*e3")
    with pytest.raises(ParseError, match=r"line 6, col 3: component index 3"):
        read_problem(text)


def test_read_problem_polynomial_sections_reject_markers():
    with pytest.raises(ParseError, match="unknown variable 'e1'"):
        read_problem(problem_text("ideal:\nx*e1"))


# ---------------------------------------------------------------------------
# fuzzing: every input either parses or raises ParseError

# pieces of the ring syntax, plus non-ASCII digits and letters, which the
# tokenizer must reject like any other unexpected character
_PIECES = [
    "x", "y", "z", "e1", "e2", "e3", "e0", "0", "1", "2", "12", "3/4", "/",
    "^", "*", "+", "-", "(", ")", " ", "#", "_", "\u00b2", "\u00e9",
]
_ALPHABET = "".join(sorted(set("".join(_PIECES) + "xye0123456789:,[]\t\n")))

fuzz_text = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=40),
    st.lists(st.sampled_from(_PIECES), max_size=25).map("".join),
)


def _parses_or_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(fuzz_text)
def test_fuzz_parse_vector_and_poly(text):
    _parses_or_parse_error(lambda s: parse_vector(s, VARS, 2), text)
    _parses_or_parse_error(lambda s: parse_poly(s, VARS), text)


_LINES = st.one_of(
    fuzz_text,
    st.sampled_from(
        ["vectors:", "syzygy:", "ideal:", "subideal:", "rank 2", "order lex",
         "ring Q[x,y]", "ring Q[]", "ring Q[e1]", "bogus:"]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=8), st.booleans())
def test_fuzz_read_problem(lines, with_header):
    body = "\n".join(lines)
    _parses_or_parse_error(read_problem, problem_text(body) if with_header else body)


@pytest.mark.parametrize("text", ["x\u00b2*e1", "\u00e9*e1", "2*e\u00b9"])
def test_non_ascii_characters_are_parse_errors(text):
    with pytest.raises(ParseError, match="unexpected character"):
        parse_vector(text, VARS, 2)
