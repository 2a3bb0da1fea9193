"""The shared case loop of the acceptance suites: a case whose predicate
fails is reported by name, and every other case still runs and counts."""

from aq import corpus
from aq.suites import run_suite


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
