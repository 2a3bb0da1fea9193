"""The shared case loop of the acceptance suites: a case whose predicate
fails is reported by name, and every other case still runs and counts.
The suites read corpora built once per process, and a report is the same
whether they were built for it or read before."""

import functools

import pytest
from shared import CORPUS_BUILDERS

from aq import corpus
from aq.suites import SUITES, run_suite


def test_a_wrong_classifier_verdict_fails_only_its_case(monkeypatch):
    real = corpus.classifier_corpus

    def one_wrong():
        cases = real()
        first = cases[0]
        cases[0] = dict(first, expected=[not v for v in first["expected"]])
        return cases

    monkeypatch.setattr(corpus, "classifier_corpus", one_wrong)
    report = run_suite("classifier-oracles")
    assert report == {"passed": False, "cases": 20,
                      "failures": [real()[0]["name"]]}


def test_a_non_regular_sequence_listed_as_regular_fails_only_its_case(
        monkeypatch):
    regular = corpus.regular_sequence_instances
    non_regular = corpus.non_regular_sequence_instances
    moved = non_regular()[0]
    monkeypatch.setattr(corpus, "regular_sequence_instances",
                        lambda: regular() + [moved])
    monkeypatch.setattr(corpus, "non_regular_sequence_instances",
                        lambda: non_regular()[1:])
    report = run_suite("koszul-depth")
    assert report == {"passed": False, "cases": 15,
                      "failures": [moved["name"]]}


def test_five_term_reads_the_stages_the_conormal_suite_built(monkeypatch):
    """Both suites run over one shared corpus of surjections, so once the
    conormal suite has built each map's stages, five-term exactness reads
    them and eliminates nothing."""
    from aq.groebner import SubmoduleEngine
    assert run_suite("conormal-degree-one")["passed"]
    built = []
    real = SubmoduleEngine.__init__

    def counting_init(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(SubmoduleEngine, "__init__", counting_init)
    assert run_suite("five-term")["passed"]
    assert built == []


@pytest.mark.parametrize("name", SUITES)
def test_a_report_is_the_same_cold_and_warm(name, monkeypatch):
    """A suite over corpora nobody has read, then twice over the shared
    ones (the second time on maps that keep what the first computed)."""
    for builder in CORPUS_BUILDERS:
        # each call builds anew; `__wrapped__` stays, for the builders
        # that call another one uncached
        raw = getattr(corpus, builder).__wrapped__
        monkeypatch.setattr(corpus, builder, functools.wraps(raw)(
            lambda *args, raw=raw, **kwargs: raw(*args, **kwargs)))
    cold = run_suite(name)
    monkeypatch.undo()
    assert run_suite(name) == cold
    assert run_suite(name) == cold
