"""End-to-end tests of the command-line frontend.

Each test drives ``main(argv)`` in-process and checks stdout byte-for-byte,
so these double as regression tests for the printed formats.
"""

import contextlib
import gc
import io
import json
import weakref

import pytest

from conftest import BASIS4_FILE, MBBA_FILE, PREBASIS7_FILE, QUOT_FILE, SUB_FILE
from modborder.cli import main
from modborder.ring import terms_up_to_degree
from modborder.textio import format_term


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_compute(write_case, capsys):
    rc, out, _ = run(capsys, ["compute", write_case(MBBA_FILE)])
    assert rc == 0
    assert out == (
        "M = {e1, e2}\n"
        "G1 = x*e1 + 4/3*e1 + 2/3*e2\n"
        "G2 = y*e1 - e1\n"
        "G3 = x*e2 - 2/3*e1 - 1/3*e2\n"
        "G4 = y*e2 - e2\n"
    )


def test_check_negative(write_case, capsys):
    rc, out, _ = run(capsys, ["check", write_case(PREBASIS7_FILE)])
    assert rc == 0
    assert out == (
        "NOT a border basis; witness SV(G1,G2), NR = x*e1 + y*e1 + e1 + e2\n"
    )


def test_check_positive_with_samples(write_case, capsys):
    path = write_case(BASIS4_FILE)
    rc, out, _ = run(capsys, ["check", path, "--samples", "25", "--seed", "7"])
    assert rc == 0
    assert out == "a border basis\nsamples: 25 ok (seed 7)\n"


def test_check_all_pairs_mode(write_case, capsys):
    path = write_case(PREBASIS7_FILE)
    rc, out, _ = run(capsys, ["check", path, "--mode", "all_pairs"])
    assert rc == 0
    assert out.startswith("NOT a border basis; witness SV(G1,G2)")


def test_divide(write_case, capsys):
    path = write_case(PREBASIS7_FILE)
    rc, out, _ = run(
        capsys, ["divide", path, "--vector", "x^3*e1 + x*y*e1 + x^3*y*e2"]
    )
    assert rc == 0
    assert out == (
        "q1 = x\n"
        "q2 = 2\n"
        "q3 = 0\n"
        "q4 = y\n"
        "q5 = 0\n"
        "q6 = 0\n"
        "q7 = 0\n"
        "NR = -x*e2 + y*e1 + 2*e2\n"
    )


def test_multmat_commuting(write_case, capsys):
    rc, out, _ = run(capsys, ["multmat", write_case(BASIS4_FILE)])
    assert rc == 0
    assert out == (
        "X1 =\n"
        "  [-4/3, 2/3]\n"
        "  [-2/3, 1/3]\n"
        "X2 =\n"
        "  [1, 0]\n"
        "  [0, 1]\n"
        "commuting: yes\n"
    )


def test_multmat_empty_order_module(write_case, capsys):
    # <e1> = P: mu = 0, so each X_s is the empty matrix
    path = write_case("ring Q[x,y]\nrank 1\norder degrevlex\nvectors:\ne1\n")
    rc, out, _ = run(capsys, ["multmat", path])
    assert rc == 0
    assert out == "X1 =\nX2 =\ncommuting: yes\n"


def test_multmat_non_commuting(write_case, capsys):
    rc, out, _ = run(capsys, ["multmat", write_case(PREBASIS7_FILE)])
    assert rc == 0
    assert out.endswith("commuting: no (X1*X2 != X2*X1)\n")
    assert "X1 =\n  [0, 0, 1, 0, 0, 0]\n" in out


def test_groebner(write_case, capsys):
    rc, out, _ = run(capsys, ["groebner", write_case(MBBA_FILE)])
    assert rc == 0
    assert out == (
        "H1 = x*e1 + 4/3*e1 + 2/3*e2\n"
        "H2 = x*e2 - 2/3*e1 - 1/3*e2\n"
        "H3 = y*e1 - e1\n"
        "H4 = y*e2 - e2\n"
    )


def test_quotient(write_case, capsys):
    rc, out, _ = run(capsys, ["quotient", write_case(QUOT_FILE)])
    assert rc == 0
    assert out == (
        "M^S = {[e1], [e2]}\n"
        "G1^S = [x*e2 - y*e1 - y*e2 + 1/3*e1 + 2/3*e2]\n"
        "G2^S = [y*e1 - e1]\n"
        "G3^S = [x*e2 - 2/3*e1 - 1/3*e2]\n"
        "G4^S = [y*e2 - e2]\n"
    )


def test_subideal(write_case, capsys):
    rc, out, _ = run(capsys, ["subideal", write_case(SUB_FILE)])
    assert rc == 0
    assert out == (
        "O_F = {f1, f2}\n"
        "G1 = (x + 4/3)*f1 + 2/3*f2\n"
        "G1 expanded = x^2 - x*y + 2*x - 2/3*y + 2/3\n"
        "G2 = (y - 1)*f1\n"
        "G2 expanded = x*y - y^2 - x + y\n"
        "G3 = -2/3*f1 + (x - 1/3)*f2\n"
        "G3 expanded = x^2 + x*y + 1/3*y - 1/3\n"
        "G4 = (y - 1)*f2\n"
        "G4 expanded = x*y + y^2 - x - 1\n"
    )


def test_output_is_deterministic(write_case, capsys):
    path = write_case(MBBA_FILE)
    outputs = set()
    for _ in range(3):
        rc, out, _ = run(capsys, ["compute", path])
        assert rc == 0
        outputs.add(out)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# json output


def test_compute_json(write_case, capsys):
    rc, out, _ = run(capsys, ["compute", write_case(MBBA_FILE), "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["module"] == [
        {"term": [0, 0], "component": 1},
        {"term": [0, 0], "component": 2},
    ]
    assert obj["basis"][0]["terms"] == [
        {"coeff": "1", "term": [1, 0], "component": 1},
        {"coeff": "4/3", "term": [0, 0], "component": 1},
        {"coeff": "2/3", "term": [0, 0], "component": 2},
    ]
    assert len(obj["basis"]) == 4


def test_check_json_witness(write_case, capsys):
    path = write_case(PREBASIS7_FILE)
    rc, out, _ = run(capsys, ["check", path, "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["border_basis"] is False
    assert obj["witness"]["pair"] == [1, 2]
    assert obj["witness"]["normal_remainder"]["terms"] == [
        {"coeff": "1", "term": [1, 0], "component": 1},
        {"coeff": "1", "term": [0, 1], "component": 1},
        {"coeff": "1", "term": [0, 0], "component": 1},
        {"coeff": "1", "term": [0, 0], "component": 2},
    ]


def test_json_is_deterministic(write_case, capsys):
    path = write_case(PREBASIS7_FILE)
    first = run(capsys, ["multmat", path, "--format", "json"])
    second = run(capsys, ["multmat", path, "--format", "json"])
    assert first == second
    obj = json.loads(first[1])
    assert obj["commuting"] is False
    assert obj["witness"] == [1, 2]


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_missing_file_is_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, ["compute", str(tmp_path / "missing.txt")])
    assert rc == 1
    assert "does not exist" in err


def test_unknown_command(capsys):
    rc, _, err = run(capsys, ["badcmd"])
    assert rc == 1
    assert "No such command 'badcmd'" in err


def test_missing_section_is_usage_error(write_case, capsys):
    path = write_case("ring Q[x,y]\nrank 2\norder degrevlex\nvectors:\n")
    rc, _, err = run(capsys, ["compute", path])
    assert rc == 1
    assert err == "error: file has no 'vectors:' entries\n"


def test_parse_error_in_file(write_case, capsys):
    path = write_case("ring Q[x,y]\nrank 2\norder degrevlex\nvectors:\nx*e3\n")
    rc, _, err = run(capsys, ["compute", path])
    assert rc == 2
    assert err == "parse error: line 5, col 3: component index 3 out of range 1..2\n"


def test_parse_error_in_vector_option(write_case, capsys):
    path = write_case(PREBASIS7_FILE)
    rc, _, err = run(capsys, ["divide", path, "--vector", "x*y"])
    assert rc == 2
    assert err == "parse error: monomial lacks a basis marker e<k>\n"


def test_precondition_error(write_case, capsys):
    path = write_case("ring Q[x,y]\nrank 2\norder degrevlex\nvectors:\nx*e1\n")
    rc, _, err = run(capsys, ["compute", path, "--max-degree", "6"])
    assert rc == 3
    assert err == "error: codimension possibly infinite (cap 6 reached)\n"


X40_FILE = "ring Q[x]\nrank 1\norder degrevlex\nideal:\nx^40\nsubideal:\nx\n"


def test_subideal_degree_cap(write_case, capsys):
    # the normal set of <x^40> reaches degree 39: past the default cap, and
    # within a cap of 41
    path = write_case(X40_FILE)
    rc, out, err = run(capsys, ["subideal", path])
    assert (rc, out) == (3, "")
    assert err == "error: codimension possibly infinite (cap 32 reached)\n"
    rc, out, err = run(capsys, ["subideal", path, "--max-degree", "41"])
    assert (rc, err) == (0, "")
    assert out.endswith("G1 = x^39*f1\nG1 expanded = x^40\n")


@pytest.mark.parametrize(
    "ideal, subideal, basis",
    [("x^33", "x", "G1 = x^32*f1\nG1 expanded = x^33\n"),
     ("x^40", "x^39", "G1 = x*f1\nG1 expanded = x^40\n")],
)
def test_subideal_within_the_default_cap(write_case, capsys, ideal, subideal,
                                         basis):
    # x^33 is one degree past the cap; the normal set of <x^40> reaches
    # degree 39; U has a generator within the cap either way
    path = write_case(
        f"ring Q[x]\nrank 1\norder degrevlex\nideal:\n{ideal}\n"
        f"subideal:\n{subideal}\n"
    )
    rc, out, err = run(capsys, ["subideal", path])
    assert (rc, err) == (0, "")
    assert out.endswith(basis)


def test_reconstruction_search_cap_exits_3(write_case, capsys):
    # every term of degree <= 9 as a vector: no order module fits, and the
    # search for one gives up instead of running for seconds
    monomials = [
        f"{format_term(t, ['x', 'y'])}*e1" for t in terms_up_to_degree(2, 9)
    ]
    path = write_case(
        "ring Q[x,y]\nrank 1\norder degrevlex\nvectors:\n"
        + "\n".join(monomials) + "\n"
    )
    rc, out, err = run(capsys, ["check", path])
    assert rc == 3
    assert out == ""
    assert err == (
        "error: prebasis reconstruction gave up: more than 1000 candidate "
        "order modules searched\n"
    )


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "compute" in out and "subideal" in out


def test_redirected_streams_are_not_kept(write_case):
    # an in-process caller that redirects stdout/stderr per call must get
    # its streams back: nothing may hold on to them after main returns
    good = write_case(MBBA_FILE)
    bad = write_case(
        "ring Q[x,y]\nrank 2\norder degrevlex\nvectors:\nx*e3\n", "bad.txt"
    )
    runs = [(["compute", good if i % 2 else bad], 0 if i % 2 else 2) for i in range(20)]
    runs += [([*cmd, "--help"], 0) for cmd in ([], ["compute"], ["check"])]
    refs = []
    for argv, want in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc == want
        assert (err if rc else out).getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []
