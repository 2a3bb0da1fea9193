"""The corpora are built once per process and shared by every call.

A call hands out a fresh list of fresh case dicts over the algebras and
maps of the first build; `builder.__wrapped__` builds new ones.  Every
test here holds whatever order the tests run in, with the shared corpora
cold or warm.
"""

import random

import pytest
from shared import CORPUS_BUILDERS

from aq import corpus
from aq.rings import AlgebraMap, PresentedAlgebra


def _objects(case):
    """The case's algebras and maps, by key."""
    return {key: value for key, value in case.items()
            if isinstance(value, (AlgebraMap, PresentedAlgebra))}


def _plain(case):
    """The case with each algebra or map written out as JSON."""
    return {key: value.to_json()
            if isinstance(value, (AlgebraMap, PresentedAlgebra)) else value
            for key, value in case.items()}


@pytest.mark.parametrize("name", CORPUS_BUILDERS)
def test_two_calls_share_the_algebras_and_maps(name):
    builder = getattr(corpus, name)
    first, second = builder(), builder()
    assert first is not second
    assert [case["name"] for case in first] == [case["name"]
                                                for case in second]
    for a, b in zip(first, second):
        assert a is not b
        objects = _objects(a)
        assert objects and objects.keys() == _objects(b).keys()
        assert all(objects[key] is b[key] for key in objects)


def test_the_arguments_are_read_with_their_defaults():
    """Every shape of a call (none, positional, keyword, mixed) that comes
    to the same values shares one build; other values build anew."""
    for builder, count, seed in [(corpus.random_surjections, 25, 1105),
                                 (corpus.random_base_extensions, 25, 2207)]:
        shared = _objects(builder()[3])
        for args, kwargs in [((count,), {}), ((count, seed), {}),
                             ((), {"count": count}), ((), {"seed": seed}),
                             ((), {"seed": seed, "count": count}),
                             ((count,), {"seed": seed})]:
            case = builder(*args, **kwargs)[3]
            assert all(case[key] is value for key, value in shared.items())
        small = _objects(builder(4, seed)[3])
        assert all(builder(seed=seed, count=4)[3][key] is value
                   for key, value in small.items())
        assert all(builder(4, seed + 2)[3][key] is not value
                   for key, value in small.items())


@pytest.mark.parametrize("call", [
    lambda: corpus.random_surjections(25, 1105, 7),
    lambda: corpus.random_surjections(size=25),
    lambda: corpus.random_surjections(25, count=25),
    lambda: corpus.random_base_extensions(seed=2207, shuffle=True),
    lambda: corpus.classifier_corpus(1),
], ids=["too-many", "unknown-keyword", "twice", "one-unknown", "no-parameters"])
def test_an_argument_a_builder_does_not_take_is_a_type_error(call):
    with pytest.raises(TypeError, match="cannot bind"):
        call()


@pytest.mark.parametrize("name", CORPUS_BUILDERS)
def test_a_caller_cannot_change_the_next_call(name):
    builder = getattr(corpus, name)
    want = [_plain(case) for case in builder()]
    cases = builder()
    random.Random(7).shuffle(cases)
    cases[0]["name"] = "renamed"
    cases[-1] = dict(cases[-1], name="replaced")
    cases.pop()
    assert [_plain(case) for case in builder()] == want


@pytest.mark.parametrize("name", CORPUS_BUILDERS)
def test_the_uncached_build_is_fresh_and_equal(name):
    builder = getattr(corpus, name)
    shared, fresh = builder(), builder.__wrapped__()
    assert [_plain(case) for case in fresh] == [_plain(case)
                                                for case in shared]
    for a, b in zip(shared, fresh):
        assert all(value is not b[key] for key, value in _objects(a).items())
