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
    shared = corpus.random_surjections()[3]["map"]
    assert corpus.random_surjections(25)[3]["map"] is shared
    assert corpus.random_surjections(seed=1105)[3]["map"] is shared
    assert corpus.random_surjections(count=25, seed=1105)[3]["map"] is shared
    assert corpus.random_surjections(25, 1107)[3]["map"] is not shared


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
