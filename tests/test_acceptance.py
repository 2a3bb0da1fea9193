"""Acceptance gate: every primary guarantee, one printed verdict per line.

All checks are exact; there are no tolerances to tune.  Run with

    pytest tests/test_acceptance.py -v -s

to see the verdict lines alongside the pytest report.
"""

from aq.cli import run_session
from shared import suite_report


def _verdict(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} {label}: {detail}"


def _suite_criterion(n: int, label: str, suite: str, cases: int) -> None:
    result = suite_report(suite)
    ok = result["passed"] and result["cases"] == cases
    detail = f"{result['cases']} cases"
    if result["failures"]:
        detail += f", failures: {result['failures']}"
    _verdict(n, label, ok, detail)


def test_criterion_01_polynomial_ring_vanishing():
    _suite_criterion(1, "polynomial-ring vanishing",
                     "polynomial-ring-vanishing", 10)


def test_criterion_02_hypersurface_suspension():
    _suite_criterion(2, "hypersurface suspension", "hypersurface-sigma-s", 10)


def test_criterion_03_degree_one_is_the_conormal_fiber():
    _suite_criterion(3, "degree 1 = conormal fiber", "conormal-degree-one", 25)


def test_criterion_04_five_term_exactness():
    _suite_criterion(4, "five-term exactness", "five-term", 25)


def test_criterion_05_classifier_oracle_agreement():
    _suite_criterion(5, "classifier/oracle agreement",
                     "classifier-oracles", 20)


def test_criterion_06_hkr_equivalence():
    _suite_criterion(6, "diagonal smooth/lci equivalence", "hkr-diagonal", 5)


def test_criterion_07_simplicial_validity():
    _suite_criterion(7, "simplicial validity", "simplicial-validity", 4)


def test_criterion_08_koszul_detects_regularity():
    _suite_criterion(8, "Koszul regularity detection", "koszul-depth", 15)


def test_criterion_09_differentials_dual_oracle():
    _suite_criterion(9, "differentials dual oracle",
                     "differentials-dual-oracle", 25)


REPRO_SESSION = """\
field QQ
ring P = poly(x, y)
ring C = P/(x^3 - y^2)
ring G = poly()
map inc : P -> C
map gr : G -> C
point o on C (x=0, y=0)
point s on C (x=1, y=1)
task homology inc coeff residue o maxdeg 5
task homology gr coeff residue s maxdeg 2
task homology inc coeff self maxdeg 2
task classify smooth gr at o,s
task classify lci gr at o,s
task resolve bar C x levels 4
task resolve koszul P (x, y) levels 2
task check conormal-degree-one
"""


def test_criterion_10_reproducible_canonical_reports(tmp_path, monkeypatch):
    runs = {}
    for name, order, seed in (("a", "degrevlex", "11"),
                              ("b", "degrevlex", "2026"),
                              ("c", "lex", "7")):
        monkeypatch.setenv("AQ_SEED", seed)
        out = tmp_path / name
        code, _ = run_session(REPRO_SESSION, out, order_name=order)
        assert code == 0, f"reproducibility session failed under {order}"
        runs[name] = (out / "canonical.json").read_bytes()
    ok = runs["a"] == runs["b"] == runs["c"]
    _verdict(10, "reproducible canonical reports", ok,
             f"{len(runs['a'])} canonical bytes, two runs plus lex rerun")
