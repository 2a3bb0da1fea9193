"""Session grammar, error reporting, and the report-writing entry point."""

import json

import pytest

from aq.session import SessionError, parse_session
from aq.cli import main, run_session


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
    printed = s1.pretty()
    s2 = parse_session(printed)
    assert s2.canonical_lines() == s1.canonical_lines()
    assert s2.pretty() == printed


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


# -- parse errors carry position and exit code ------------------------------------


def err(text, order="degrevlex"):
    with pytest.raises(SessionError) as info:
        parse_session(text, order)
    return info.value


def test_non_prime_field_is_exit_one():
    e = err("field GF 4\n")
    assert e.exit_code == 1
    assert "prime" in e.message
    assert e.line == 1 and e.col == 9


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
])
def test_name_errors_point_at_the_name(line, name, message):
    e = err(DECLARED + line + "\n")
    assert message in e.message
    # 1-based column of the name's first character, not of the space before
    assert (e.line, e.col) == (7, line.rindex(name) + 1)


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


def test_automatic_resolution_stops_one_level_past_maxdeg():
    # the complex is reliable through cutoff - 1, so maxdeg 5 needs cutoff 6
    text = ("field QQ\nring P = poly(x, y)\nring C = P/(x^3 - y^2)\n"
            "map inc : P -> C\npoint o on C (x=0, y=0)\n"
            "task homology inc coeff residue o maxdeg 5\n")
    code, summary = run_session(text)
    assert code == 0
    report = summary["informational"]["task_details"][0]["report"]
    assert report["cutoff"] == 6


def test_level_cap_clamps_resolve_tasks():
    text = ("field QQ\nring P = poly(x)\n"
            "task resolve bar P x levels 6\n")
    code, summary = run_session(text, level_cap=2)
    assert code == 0
    task = summary["canonical"]["tasks"][0]
    assert task["levels"] == 2
    assert len(task["cells"]) == 3


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


def test_main_reports_missing_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.aq")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_rejects_unknown_order(tmp_path):
    f = write_session(tmp_path, BASIC)
    with pytest.raises(SystemExit):
        main(["run", str(f), "--order", "grlex"])
