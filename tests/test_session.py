"""Session grammar, error reporting, and the report-writing entry point."""

import json
import time
import types

import pytest
from shared import diagonal_with_one_more_generator

import aq.classify
import aq.cli
import aq.corpus
import aq.cotangent
import aq.simplicial
from aq.session import (MAX_KOSZUL_ELEMENTS, MAX_LEVEL, SessionError,
                        TaskDecl, parse_session)
from aq.cli import main, run_session
from aq.fields import MAX_ECHO, FieldError
from aq.poly import MAX_PRODUCT_WORK
from aq.suites import SUITES


BASIC = """\
# cusp geometry over the rationals
field QQ
ring P = poly(x, y)
ring C = P/(x^3 - y^2)
ring G = poly()
map inc : P -> C
map tw : P -> C [x -> x + y^2]
map gr : G -> C
point o on C (x=0, y=0)
point s on C (x=1, y=1)

task homology inc coeff residue o maxdeg 2
task homology inc coeff self maxdeg 2
task classify smooth inc at o,s
task classify smooth gr at o,s
task resolve koszul P (x, y) levels 2
"""


# -- grammar --------------------------------------------------------------------


def test_parse_pretty_parse_is_the_identity():
    s1 = parse_session(BASIC)
    printed = "\n".join(s1.canonical_lines()) + "\n"
    s2 = parse_session(printed)
    assert s2.canonical_lines() == s1.canonical_lines()
    assert "\n".join(s2.canonical_lines()) + "\n" == printed


def test_canonical_lines_do_not_depend_on_the_ambient_order():
    a = parse_session(BASIC, "degrevlex")
    b = parse_session(BASIC, "lex")
    assert a.canonical_lines() == b.canonical_lines()


def test_statement_canonical_forms():
    lines = parse_session(BASIC).canonical_lines()
    assert lines[0] == "field QQ"
    assert lines[1] == "ring P = poly(x,y)"
    assert lines[2] == "ring C = P/(x^3 - y^2)"
    assert lines[3] == "ring G = poly()"
    assert lines[4] == "map inc : P -> C [x -> x, y -> y]"
    # stated images are kept unreduced, rendered in a fixed term order
    assert lines[5] == "map tw : P -> C [x -> y^2 + x, y -> y]"
    assert lines[6] == "map gr : G -> C"
    assert lines[7] == "point o on C (x=0, y=0)"
    assert "task classify smooth inc at o,s" in lines


def test_comments_and_blank_lines_are_skipped():
    s = parse_session("field QQ\n\n# nothing here\nring R = poly(t)\n")
    assert len(s.canonical_lines()) == 2


def test_names_may_contain_dashes():
    s = parse_session("field QQ\nring R = poly(x)\ntask check five-term\n")
    assert s.tasks()[0].payload == ("five-term",)


def test_a_task_is_read_only_and_compared_by_value():
    task, = parse_session("field QQ\ntask check five-term\n").tasks()
    again, = parse_session("field QQ\ntask check  five-term # again\n").tasks()
    assert (task.kind, task.payload, task.line) == (
        "check", ("five-term",), "task check five-term")
    assert task == again and hash(task) == hash(again) and task is not again
    assert task != TaskDecl("check", ("koszul-depth",), "task check koszul-depth")
    assert task != ("check", ("five-term",), "task check five-term")
    with pytest.raises(AttributeError, match="read-only"):
        task.kind = "classify"
    with pytest.raises(AttributeError, match="read-only"):
        task.extra = 1
    with pytest.raises(AttributeError, match="read-only"):
        del task.line
    assert task == again and {task, again} == {task}


# -- parse errors carry position and exit code ------------------------------------


def err(text, order="degrevlex"):
    with pytest.raises(SessionError) as info:
        parse_session(text, order)
    return info.value


def test_non_prime_field_is_exit_one():
    e = err("field GF 4\n")
    assert e.exit_code == 1
    assert "prime" in e.message
    assert e.line == 1 and e.col == 10


def test_off_variety_point_is_exit_two():
    e = err("field QQ\nring C = poly(x)\nring D = C/(x^2 - 1)\n"
            "point p on D (x=2)\n")
    assert e.exit_code == 2
    assert "not a rational point" in e.message
    assert e.line == 4


def test_unknown_task_lists_the_valid_ones():
    e = err("field QQ\nring R = poly(x)\ntask frobnicate R\n")
    assert "check, classify, homology, resolve" in e.message


def test_duplicate_names_are_rejected():
    e = err("field QQ\nring R = poly(x)\nring R = poly(y)\n")
    assert "already declared" in e.message and e.line == 3


def test_field_must_come_first_and_only_once():
    assert "declare" in err("ring R = poly(x)\n").message
    e = err("field QQ\nfield GF 5\n")
    assert "already declared" in e.message


def test_map_image_must_use_source_variables():
    e = err("field QQ\nring P = poly(x)\nring Q = poly(y)\n"
            "map f : P -> Q [z -> y]\n")
    assert "not a source variable" in e.message


def test_classify_point_must_live_on_the_subject():
    e = err("field QQ\nring P = poly(x)\nring Q = poly(y)\n"
            "map f : P -> Q [x -> y]\npoint p on P (x=0)\n"
            "task classify smooth f at p\n")
    assert "lives on P" in e.message


DECLARED = ("field QQ\nring P = poly(x)\nring Q = poly(y)\n"
            "map f : P -> Q [x -> y]\npoint p on P (x=0)\npoint o on Q (y=0)\n")


@pytest.mark.parametrize("line, name, message", [
    ("map g : Zed -> Q", "Zed", "unknown ring"),
    ("map g : P -> Zed", "Zed", "unknown ring"),
    ("point q on Zed (x=0)", "Zed", "unknown ring"),
    ("task homology Zed coeff self maxdeg 2", "Zed", "unknown map"),
    ("task homology f coeff residue Zed maxdeg 2", "Zed", "unknown point"),
    ("task homology f coeff residue p maxdeg 2", "p", "lives on P"),
    ("task classify regular Zed at o", "Zed", "unknown ring"),
    ("task classify smooth Zed at o", "Zed", "unknown map"),
    ("task classify smooth f at o,Zed", "Zed", "unknown point"),
    ("task classify smooth f at o, p", "p", "lives on P"),
    ("task resolve bar Zed x levels 2", "Zed", "unknown ring"),
    ("task frobnicate", "frobnicate", "unknown task"),
    ("task classify flat f at o", "flat", "unknown property"),
    ("task resolve tower P (x) levels 2", "tower", "unknown construction"),
    ("task resolve bar P zz levels 2", "zz", "is not a variable"),
    ("task homology f coeff Zed maxdeg 2", "Zed", "unknown coefficient spec"),
    ("task homology f coeff P maxdeg 2", "P", "must be the map's target"),
    ("ring P = poly(z)", "P", "already declared"),
    ("point f on Q (y=0)", "f", "already declared"),
    ("map h : P -> Q", "h", "no image given"),
    # a word or group that breaks the grammar is named where it starts
    ("frobnicate P", "frobnicate", "unknown statement"),
    ("ring 9R = poly(x)", "9R", "cannot start with a digit"),
    ("ring R = Zed/(x)", "Zed", "unknown ring"),
    ("ring R poly(x)", "poly", "expected '='"),
    ("ring R = poly(x) junk", "junk", "trailing input"),
    ("ring R = poly(x", "(", "unbalanced '('"),
    ("ring R = poly(x,2y)", "2y", "bad variable name"),
    ("ring R = poly(x,x)", "x,x", "duplicate variable names"),
    ("ring R = P/(x,)", ")", "empty relation"),
    ("map : P -> Q", ":", "expected a map name"),
    ("map g : P -> Q [x -> y", "[", "unbalanced '['"),
    ("map g : P -> Q [x y]", "x y", "expected 'var -> polynomial'"),
    ("map g : P -> Q [x -> y,x -> y]", "x -> y", "duplicate image"),
    ("point q at P (x=0)", "at", "expected 'on'"),
    ("point q on P x=0", "x=0", "expected '('"),
    ("point q on P (x)", "x", "expected 'var=value'"),
    ("point q on P (y=0)", "y=0", "is not a variable of P"),
    ("point q on P (x=0,x=0)", "x=0", "duplicate assignment"),
    ("point q on P (x=a)", "x=a", "bad scalar"),
    ("point q on P (x=1/0)", "x=1/0", "bad scalar"),
    # one grammar: a sign, digits, then optionally '/' and digits
    ("point q on P (x=a/2)", "x=a/2", "bad scalar 'a/2'"),
    ("point q on P (x=++3)", "x=++3", "bad scalar '++3'"),
    ("point q on P (x=1_0)", "x=1_0", "bad scalar '1_0'"),
    ("point q on P (x=1_0/3)", "x=1_0/3", "bad scalar '1_0/3'"),
    ("point q on P (x=3/-2)", "x=3/-2", "bad scalar '3/-2'"),
    ("point q on P (x=1/2/3)", "x=1/2/3", "bad scalar '1/2/3'"),
    ("point q on P (x=0.5)", "x=0.5", "bad scalar '0.5'"),
    ("task resolve bar P x levels many", "many", "expected a level bound"),
    ("task check no-such-suite", "no-such-suite",
     f"unknown suite 'no-such-suite'; available: {', '.join(sorted(SUITES))}"),
])
def test_name_errors_point_at_the_name(line, name, message):
    e = err(DECLARED + line + "\n")
    assert message in e.message and e.exit_code == 1
    # 1-based column of the name's first character, not of the space before
    assert (e.line, e.col) == (7, line.rindex(name) + 1)


def test_field_statements():
    s = parse_session("field GF 101\nring P = poly(x)\n")
    assert s.canonical_lines()[0] == "field GF 101"
    assert s.rings["P"].field.characteristic == 101
    e = err("field RR\n")
    assert "unknown field 'RR'" in e.message and (e.line, e.col) == (1, 7)


def test_hypersurface_resolve_takes_one_element():
    e = err("field QQ\nring P = poly(x, y)\n"
            "task resolve hypersurface P (x, y) levels 3\n")
    assert "exactly one element" in e.message


def test_homology_coefficient_ring_must_be_the_target():
    e = err("field QQ\nring P = poly(x)\nring Q = P/(x^2)\n"
            "map f : P -> Q\ntask homology f coeff P maxdeg 2\n")
    assert "target" in e.message


def test_order_name_is_validated():
    e = err("field QQ\n", order="grlex")
    assert "order" in e.message
    # the order is no part of the text, so the error names no position in it
    assert str(e) == "unknown monomial order 'grlex'"
    assert (e.line, e.col) == (None, None)


# -- hostile input ends in a positioned error -------------------------------------


HOSTILE_HEAD = "field QQ\nring P = poly(x)\n"
DEEP = "(" * 3000 + "x" + ")" * 3000
LONG = "7" * 5000  # past the interpreter's limit for int() on a string


@pytest.mark.parametrize("line", [
    f"ring C = P/({DEEP})",
    f"map f : P -> P [x -> {DEEP}]",
    f"task resolve hypersurface P ({DEEP}) levels 2",
], ids=["relation", "map-image", "resolve"])
def test_deep_parentheses_are_a_positioned_error(line):
    e = err(HOSTILE_HEAD + line + "\n")
    assert e.exit_code == 1 and e.line == 3
    assert "nested" in e.message
    assert line[e.col - 1] == "("


@pytest.mark.parametrize("line, col", [
    ("ring Q = P/(x, y +)", 19),
    ("ring Q = P/(x^)", 15),
    ("map f : P -> C [x ->   (y]", 26),
])
def test_unexpected_end_points_just_past_the_last_token(line, col):
    e = err("field QQ\nring P = poly(x, y)\nring C = P/(x^3 - y^2)\n"
            + line + "\n")
    assert "unexpected end of expression" in e.message
    assert (e.exit_code, e.line, e.col) == (1, 4, col)


def test_spaces_around_the_parts_of_a_scalar_are_kept_out_of_the_point():
    s = parse_session(DECLARED + "point q on P (x= - 6 / 4 )\n")
    assert s.canonical_lines()[-1] == "point q on P (x=-3/2)"


@pytest.mark.parametrize("count, image", [(5000, "x"), (5001, "-x")])
def test_long_runs_of_unary_minus_parse(count, image):
    s = parse_session(HOSTILE_HEAD + f"ring C = P/({'-' * count}x)\n"
                      f"map f : P -> P [x -> {'-' * count}x]\n")
    lines = s.canonical_lines()
    assert lines[2] == f"ring C = P/({image})"
    assert lines[3] == f"map f : P -> P [x -> {image}]"


def test_an_overlong_point_value_is_echoed_in_part():
    line = f"point q on P (x={LONG})"
    e = err(HOSTILE_HEAD + line + "\n")
    assert e.exit_code == 1 and (e.line, e.col) == (3, line.index("x=") + 1)
    assert e.message.startswith("bad scalar '" + LONG[:MAX_ECHO] + "'...")
    assert f"({len(LONG)} characters)" in e.message
    assert len(str(e)) < 2 * MAX_ECHO + 60


WORD = "x" * 5000


@pytest.mark.parametrize("text, word, line, col, message", [
    ("field QQ\n" + WORD, WORD, 2, 1, "unknown statement"),
    (HOSTILE_HEAD + "ring Q = poly(x) " + WORD, WORD, 3, 18, "trailing input"),
    (HOSTILE_HEAD + f"ring C = P/(x - y{WORD})", "y" + WORD, 3, 17,
     "unknown variable"),
    (f"field QQ\nring P = poly({WORD})\nring G = poly()\nmap f : P -> G", WORD,
     4, 5, "no image given for"),
], ids=["statement", "tail", "variable", "no-image"])
def test_an_overlong_word_is_echoed_in_part(text, word, line, col, message):
    e = err(text)
    assert e.exit_code == 1 and (e.line, e.col) == (line, col)
    assert e.message.startswith(f"{message} '{word[:MAX_ECHO]}'... "
                                f"({len(word)} characters)")
    assert len(str(e)) < 3 * MAX_ECHO + 60


NAME = "R" * 5000
LONG_RING = f"field QQ\nring {NAME} = poly(x)\n"


@pytest.mark.parametrize("text, message", [
    (LONG_RING + f"point q on {NAME} (y=0)", "'y' is not a variable of "),
    (LONG_RING + f"task resolve bar {NAME} zz levels 2",
     "'zz' is not a variable of "),
    (LONG_RING + f"ring Q = poly(y)\nmap f : {NAME} -> Q [x -> y]\n"
     f"point p on {NAME} (x=0)\ntask classify smooth f at p",
     "point 'p' lives on "),
], ids=["point", "bar", "point-on"])
def test_an_overlong_ring_name_is_echoed_in_part(text, message):
    e = err(text + "\n")
    assert e.exit_code == 1
    assert e.message.startswith(f"{message}{NAME[:MAX_ECHO]}... "
                                f"({len(NAME)} characters)")
    assert len(str(e)) < 3 * MAX_ECHO + 80


def test_an_overlong_relation_a_map_breaks_is_echoed_in_part():
    relation = " + ".join(f"x^{i}" for i in range(899, 1, -1)) + " + x"
    e = err(HOSTILE_HEAD + f"ring C = P/({relation})\nring Q = poly(x)\n"
            "map f : C -> Q\n")
    assert e.exit_code == 1 and (e.line, e.col) == (5, 5)
    assert e.message == ("map does not kill source relation "
                         f"{relation[:MAX_ECHO]}... ({len(relation)} characters)")


@pytest.mark.parametrize("line", [
    f"ring C = P/(x - {LONG})",
    f"ring C = P/(x - 1/{LONG})",
    f"ring C = P/(x^{LONG})",
    f"map f : P -> P [x -> {LONG}*x]",
    f"task resolve bar P x levels {LONG}",
    f"map f : P -> P\ntask homology f coeff self maxdeg {LONG}",
], ids=["literal", "denominator", "exponent", "map-image", "levels",
        "maxdeg"])
def test_overlong_integers_are_a_positioned_error(line):
    e = err(HOSTILE_HEAD + line + "\n")
    assert e.exit_code == 1
    assert "digits" in e.message
    last = line.split("\n")[-1]
    assert e.line == 2 + line.count("\n") + 1
    assert e.col == last.index(LONG) + 1


HUGE = "99999999999"  # parses at once; evaluating x^HUGE multiplies 10^11 times


@pytest.mark.parametrize("line", [
    f"ring C = P/(x^{HUGE} - 1)",
    f"map f : P -> P [x -> x^{HUGE}]",
    f"task resolve hypersurface P (x^{HUGE}) levels 2",
], ids=["relation", "map-image", "resolve"])
def test_huge_exponents_are_a_positioned_error(line):
    e = err(HOSTILE_HEAD + line + "\n")
    assert e.exit_code == 1 and e.line == 3
    assert "exponent" in e.message and "1000" in e.message
    assert e.col == line.index(HUGE) + 1


def test_exponent_at_the_cap_is_accepted():
    s = parse_session("field QQ\nring P = poly(x, y)\n"
                      "ring C = P/(x^1000*y^1000 - 1)\n"
                      "point o on C (x=1, y=-1)\n")
    assert s.canonical_lines()[2] == "ring C = P/(x^1000*y^1000 - 1)"


@pytest.mark.parametrize("line, op", [
    ("ring C = P/((x+y)^1000)", "^"),
    ("ring C = P/((x+y+1)^80 - 1)", "^"),
    ("map f : P -> P [x -> (x+y+1)^120]", "^"),
    ("ring C = P/((x+y)^200*(x+y)^200*(x+y)^200)", "*"),
], ids=["binomial", "trinomial-80", "trinomial-120", "product"])
def test_expensive_products_are_refused_at_the_operator(line, op):
    start = time.process_time()
    e = err("field QQ\nring P = poly(x, y)\n" + line + "\n")
    assert time.process_time() - start < 1.0
    assert e.exit_code == 1 and e.line == 3
    assert "term pairs" in e.message and str(MAX_PRODUCT_WORK) in e.message
    assert e.col == line.rindex(op) + 1


def test_expensive_substitution_is_refused_at_the_map_line():
    # each image parses cheaply; checking the relation x^200 expands
    # (x+y+1)^200, past the product budget of one substitution
    line = "map f : C -> P [x -> x+y+1, y -> y]"
    start = time.process_time()
    e = err("field QQ\nring P = poly(x, y)\nring C = P/(x^200)\n" + line + "\n")
    assert time.process_time() - start < 1.0
    assert e.exit_code == 1 and (e.line, e.col) == (4, line.index("f") + 1)
    assert "term pairs" in e.message and str(MAX_PRODUCT_WORK) in e.message


def test_overlong_field_characteristic_is_a_positioned_error():
    e = err(f"field GF {LONG}\n")
    assert e.exit_code == 1 and "digits" in e.message
    assert (e.line, e.col) == (1, 10)


def test_large_field_characteristic_is_refused_before_the_primality_test():
    # trial division up to the square root of this number would not finish
    e = err("field GF 1000000000000000000000000000057\n")
    assert e.exit_code == 1 and "2^31" in e.message
    assert (e.line, e.col) == (1, 10)


BOUND_HEAD = "field QQ\nring P = poly(x, y)\nmap id : P -> P\n"


@pytest.mark.parametrize("line, word", [
    ("task resolve bar P x levels 21", "levels"),
    ("task resolve koszul P (x, y) levels 60", "levels"),
    ("task homology id coeff self maxdeg 21", "maxdeg"),
], ids=["bar-levels", "koszul-levels", "maxdeg"])
def test_levels_and_degrees_above_the_bound_are_refused(line, word):
    e = err(BOUND_HEAD + line + "\n")
    assert e.exit_code == 1 and e.line == 4
    assert word in e.message and str(MAX_LEVEL) in e.message
    number = line.rsplit(" ", 1)[1]
    assert e.col == line.rindex(number) + 1


def test_levels_and_degrees_at_the_bound_parse():
    s = parse_session(BOUND_HEAD + f"task resolve bar P x levels {MAX_LEVEL}\n"
                      f"task homology id coeff self maxdeg {MAX_LEVEL}\n")
    assert len(s.tasks()) == 2


def test_koszul_on_too_many_elements_is_refused_at_the_first_extra_one():
    elements = ", ".join(["x"] * MAX_KOSZUL_ELEMENTS + ["x*y", "y"])
    line = f"task resolve koszul P ({elements}) levels 1"
    e = err(BOUND_HEAD + line + "\n")
    assert e.exit_code == 1 and e.line == 4
    assert str(MAX_KOSZUL_ELEMENTS) in e.message
    assert e.col == line.index("x*y") + 1
    at_bound = ", ".join(["x"] * MAX_KOSZUL_ELEMENTS)
    assert parse_session(
        BOUND_HEAD + f"task resolve koszul P ({at_bound}) levels 1\n").tasks()


# -- execution ------------------------------------------------------------------


def test_run_session_all_pass(tmp_path):
    code, summary = run_session(BASIC, tmp_path)
    assert code == 0
    statuses = summary["canonical"]["statuses"]
    assert statuses == ["pass"] * 5
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "canonical.json" in names and "summary.json" in names
    assert "task-001-homology.json" in names
    blob = json.loads((tmp_path / "canonical.json").read_text())
    assert blob["session"] == parse_session(BASIC).canonical_lines()


def test_residue_homology_report_contents(tmp_path):
    run_session(BASIC, tmp_path)
    blob = json.loads((tmp_path / "task-001-homology.json").read_text())
    can = blob["canonical"]
    assert can["dims"] == {"0": 0, "1": 1, "2": 0}
    assert can["coefficients"]["kind"] == "residue-field"


def test_module_homology_reports_zero_flags(tmp_path):
    run_session(BASIC, tmp_path)
    blob = json.loads((tmp_path / "task-002-homology.json").read_text())
    # the differentials of a surjection vanish; the conormal module does not
    assert blob["canonical"]["zero"] == {"0": True, "1": False, "2": True}


def test_high_degree_homology_without_a_resolution_is_an_error():
    text = ("field QQ\nring P = poly(x)\nmap id : P -> P\n"
            "task homology id coeff self maxdeg 5\n")
    code, summary = run_session(text)
    assert code == 1
    assert summary["canonical"]["statuses"] == ["error"]
    detail = summary["informational"]["task_details"][0]
    assert "insufficient machinery" in detail["message"]


def test_high_degree_homology_with_automatic_resolution():
    text = ("field QQ\nring P = poly(x, y)\nring C = P/(x^3 - y^2)\n"
            "map inc : P -> C\npoint o on C (x=0, y=0)\n"
            "task homology inc coeff residue o maxdeg 5\n")
    code, summary = run_session(text)
    assert code == 0
    dims = summary["canonical"]["tasks"][0]["dims"]
    assert dims["1"] == 1 and dims["2"] == 0


@pytest.mark.parametrize("images", ["", " [x -> x, y -> y]"], ids=["omitted", "stated"])
def test_stated_identity_images_get_the_automatic_resolution(images):
    # x reduces to y in C, so the stored image of x is y when stated and x
    # when omitted; both maps are the canonical surjection P -> C
    text = ("field QQ\nring P = poly(x, y)\nring C = P/(x - y)\n"
            f"map inc : P -> C{images}\npoint o on C (x=0, y=0)\n"
            "task homology inc coeff residue o maxdeg 3\n")
    code, summary = run_session(text)
    assert code == 0
    assert summary["canonical"]["statuses"] == ["pass"]
    assert summary["canonical"]["tasks"][0]["dims"] == {"0": 0, "1": 1, "2": 0, "3": 0}


def test_automatic_resolution_stops_one_level_past_maxdeg():
    # the complex is reliable through cutoff - 1, so maxdeg 5 needs cutoff 6
    text = ("field QQ\nring P = poly(x, y)\nring C = P/(x^3 - y^2)\n"
            "map inc : P -> C\npoint o on C (x=0, y=0)\n"
            "task homology inc coeff residue o maxdeg 5\n")
    code, summary = run_session(text)
    assert code == 0
    report = summary["informational"]["task_details"][0]["report"]
    assert report["cutoff"] == 6


def test_koszul_resolve_builds_its_complex_once(monkeypatch):
    import aq.modules
    built = []

    class CountingComplex(aq.modules.FreeComplex):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(aq.modules, "FreeComplex", CountingComplex)
    code, summary = run_session("field QQ\nring P = poly(x, y)\n"
                                "task resolve koszul P (x, x*y) levels 1\n")
    assert code == 0
    task = summary["canonical"]["tasks"][0]
    assert task["ranks"] == [1, 2, 1]
    # levels 1 reads degree 1 only: H_1(K(x, x*y)) holds y*e_1 - e_2
    assert task["per_degree"] == {"1": False}
    assert task["all_vanish"] is False
    assert len(built) == 1


def test_classify_task_canonical_section():
    code, summary = run_session(BASIC)
    quotient = summary["canonical"]["tasks"][2]
    assert quotient["property"] == "smooth"
    # a proper quotient is nowhere smooth: its conormal fiber never dies
    assert [row["verdict"] for row in quotient["points"]] == [False, False]
    ground = summary["canonical"]["tasks"][3]
    assert [row["verdict"] for row in ground["points"]] == [False, True]
    assert ground["all"] is False
    assert ground["global"] == "sampled-only"


# -- byte stability ----------------------------------------------------------------


def canonical_bytes(tmp_path, name, order):
    out = tmp_path / name
    run_session(BASIC, out, order_name=order)
    return (out / "canonical.json").read_bytes()


def test_canonical_report_is_byte_stable(tmp_path, monkeypatch):
    monkeypatch.setenv("AQ_SEED", "11")
    first = canonical_bytes(tmp_path, "a", "degrevlex")
    monkeypatch.setenv("AQ_SEED", "97")
    again = canonical_bytes(tmp_path, "b", "degrevlex")
    relex = canonical_bytes(tmp_path, "c", "lex")
    assert first == again == relex


RARE = """\
field QQ
ring P = poly(x, y)
ring C = P/(x^3 - y^2)
map inc : P -> C
point o on C (x=0, y=0)
point s on C (x=1, y=1)

task resolve hypersurface P (x^3 - y^2) levels 3
task resolve killcycles C (x) levels 2
task classify regular C at o,s
task classify ci C at o,s
task homology inc coeff C maxdeg 2
"""


def test_resolutions_ring_properties_and_ring_coefficients_run(tmp_path):
    """The resolve, ring-classify and named-ring coefficient tasks that the
    basic session leaves out all pass, with the same bytes in both orders."""
    blobs = []
    for order in ("degrevlex", "lex"):
        code, summary = run_session(RARE, tmp_path / order, order_name=order)
        assert code == 0
        assert summary["canonical"]["statuses"] == ["pass"] * 5
        blobs.append((tmp_path / order / "canonical.json").read_bytes())
    assert blobs[0] == blobs[1]
    tasks = json.loads(blobs[0])["tasks"]
    assert [t["cells"] for t in tasks[:2]] == [[0, 1, 2, 3], [0, 1, 2]]
    assert tasks[4]["zero"] == {"0": True, "1": False, "2": True}


def test_an_oracle_disagreement_is_its_own_status(monkeypatch):
    import aq.classify
    monkeypatch.setattr(aq.classify, "_regular_sequence_oracle",
                        lambda stage, point: False)
    code, summary = run_session(
        "field QQ\nring P = poly(x, y)\nring C = P/(x^3 - y^2)\n"
        "map inc : P -> C\npoint o on C (x=0, y=0)\n"
        "task classify lci inc at o\n")
    assert code == 1
    assert summary["canonical"]["statuses"] == ["oracle-disagreement"]
    detail = summary["informational"]["task_details"][0]
    assert "lci oracle disagreement" in detail["message"]


def _jacobian_of_no_columns(rp):
    return []


def _always_smooth(phi, point):
    return {"verdict": True}


@pytest.mark.parametrize("task, name, replacement, message", [
    ("classify smooth gr at s", "jacobian_matrix", _jacobian_of_no_columns,
     "smoothness oracle disagreement"),
    ("classify unramified inc at o", "kahler_oracle_via_diagonal",
     diagonal_with_one_more_generator, "differentials oracle disagreement"),
    ("classify regular C at o", "is_smooth_at", _always_smooth,
     "regularity oracle disagreement"),
    ("classify ci C at o", "_regular_sequence_oracle",
     lambda stage, point: False, "lci oracle disagreement"),
], ids=["smooth", "differentials", "regular", "ci"])
def test_each_oracle_disagreement_is_its_own_status(monkeypatch, task, name,
                                                   replacement, message):
    monkeypatch.setattr(aq.classify, name, replacement)
    code, summary = run_session(
        "field QQ\nring P = poly(x, y)\nring C = P/(x^3 - y^2)\n"
        "ring G = poly()\nmap inc : P -> C\nmap gr : G -> C\n"
        "point o on C (x=0, y=0)\npoint s on C (x=1, y=1)\n"
        f"task {task}\n")
    assert code == 1
    assert summary["canonical"]["statuses"] == ["oracle-disagreement"]
    detail = summary["informational"]["task_details"][0]
    assert message in detail["message"]


def _smooth_negated(phi, point):
    result = _real_is_smooth_at(phi, point)
    return dict(result, verdict=not result["verdict"])


_real_is_smooth_at = aq.classify.is_smooth_at
_real_tor_modules = aq.cotangent.tor_modules


def _tor_one_higher(phi, n_max=3):
    """Tor with every dimension at a point one higher: a stand-in for the
    Tor side of the five-term check that disagrees everywhere."""
    tor = _real_tor_modules(phi, n_max)
    complex_ = types.SimpleNamespace(dims_through=lambda pt, n: [
        d + 1 for d in tor.complex.dims_through(pt, n)])
    return types.SimpleNamespace(provenance=tor.provenance, complex=complex_)


@pytest.mark.parametrize("suite, module, name, replacement, builder", [
    ("hkr-diagonal", aq.classify, "is_smooth_at", _smooth_negated,
     "hkr_instances"),
    ("five-term", aq.cotangent, "tor_modules", _tor_one_higher,
     "random_surjections"),
], ids=["hkr", "five-term"])
def test_each_equivalence_check_fails_when_one_side_moves(
        monkeypatch, suite, module, name, replacement, builder):
    """The HKR and five-term checks compare two sides and report, rather
    than raise, a mismatch: every case fails and the task is a failure."""
    monkeypatch.setattr(module, name, replacement)
    code, summary = run_session(f"field QQ\ntask check {suite}\n")
    assert code == 1
    assert summary["canonical"]["statuses"] == ["fail"]
    task = summary["canonical"]["tasks"][0]
    assert task["passed"] is False
    assert task["failures"] == sorted(
        case["name"] for case in getattr(aq.corpus, builder)())


def test_a_classify_error_without_a_disagreement_is_an_error(monkeypatch):
    def refuse(algebra, point):
        raise aq.classify.ClassifyError("not a rational point")

    monkeypatch.setattr(aq.classify, "_require_rational", refuse)
    code, summary = run_session(
        "field QQ\nring P = poly(x)\nmap inc : P -> P\npoint o on P (x=0)\n"
        "task classify smooth inc at o\n")
    assert code == 1
    assert summary["canonical"]["statuses"] == ["error"]
    detail = summary["informational"]["task_details"][0]
    assert detail["message"] == "not a rational point"


def test_any_library_error_in_a_task_is_an_error_status(monkeypatch):
    def divide_by_zero(session, payload):
        raise FieldError("division by zero")

    monkeypatch.setitem(aq.cli._RUNNERS, "resolve", divide_by_zero)
    code, summary = run_session(
        "field QQ\nring P = poly(x)\ntask resolve bar P x levels 2\n")
    assert code == 1
    assert summary["canonical"]["statuses"] == ["error"]
    detail = summary["informational"]["task_details"][0]
    assert detail["message"] == "division by zero"


def test_a_resolution_failing_its_identities_reports_them(monkeypatch):
    monkeypatch.setattr(aq.simplicial.FreeExtensionLevelwise,
                        "simplicial_identities_hold",
                        lambda ext: (False, ["d0 d1 level 2 on x2_0"]))
    code, summary = run_session(
        "field QQ\nring P = poly(x)\ntask resolve bar P x levels 2\n")
    assert code == 1
    assert summary["canonical"]["statuses"] == ["fail"]
    assert summary["canonical"]["tasks"][0]["identities_hold"] is False
    detail = summary["informational"]["task_details"][0]
    assert detail["identity_failures"] == ["d0 d1 level 2 on x2_0"]


# -- command line -----------------------------------------------------------------


def write_session(tmp_path, text):
    f = tmp_path / "job.aq"
    f.write_text(text)
    return f


def test_main_runs_a_file_and_prints_statuses(tmp_path, capsys):
    f = write_session(tmp_path, BASIC)
    out = tmp_path / "reports"
    assert main(["run", str(f), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("pass") == 5
    assert "5 task(s)" in printed
    assert (out / "canonical.json").exists()


def test_main_default_output_directory(tmp_path, capsys):
    f = write_session(tmp_path, "field QQ\nring P = poly(x)\n"
                                "task resolve bar P x levels 2\n")
    assert main(["run", str(f)]) == 0
    assert (tmp_path / "job.aq.out" / "canonical.json").exists()


def test_main_propagates_parse_exit_codes(tmp_path, capsys):
    bad = write_session(tmp_path, "field GF 4\n")
    assert main(["run", str(bad)]) == 1
    assert "prime" in capsys.readouterr().err
    off = write_session(tmp_path, "field QQ\nring C = poly(x)\n"
                                  "ring D = C/(x^2 - 1)\npoint p on D (x=2)\n")
    assert main(["run", str(off)]) == 2


@pytest.mark.parametrize("text", [
    HOSTILE_HEAD + f"ring C = P/({DEEP})\n",
    HOSTILE_HEAD + f"ring C = P/(x^{LONG})\n",
    f"field GF {LONG}\n",
    f"field QQ\nring P = poly(x, y)\nring C = P/(x^{HUGE} - y)\n"
    "point o on C (x=1, y=1)\n",
], ids=["deep", "long-exponent", "long-characteristic", "huge-exponent"])
def test_main_turns_hostile_text_into_exit_one(tmp_path, capsys, text):
    f = write_session(tmp_path, text)
    assert main(["run", str(f)]) == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith("error: ") and "(line " in err_text
    assert "Traceback" not in err_text


def test_main_reports_missing_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.aq")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_rejects_unknown_order(tmp_path):
    f = write_session(tmp_path, BASIC)
    with pytest.raises(SystemExit):
        main(["run", str(f), "--order", "grlex"])
