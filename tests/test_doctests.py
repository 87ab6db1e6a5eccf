"""The ``>>>`` examples in the word, chunk, relationship and recommender
modules run as tests."""

import doctest

import pytest

import corename.chunks
import corename.facts.relations
import corename.lexicon
import corename.recommend


@pytest.mark.parametrize(
    "module", [corename.lexicon, corename.chunks, corename.facts.relations, corename.recommend]
)
def test_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
