"""The one-frame tokenizer against the method-per-construct oracle.

:func:`~repro.html.tokenizer.tokenize` scans the whole string in one
generator frame.  These tests require it to yield the same token stream as
:class:`ReferenceTokenizer` -- equal token types and equal fields, attribute
order included -- on random markup built from the characters and fragments
each scanning branch reacts to, and to build the same tree from it.
"""

from __future__ import annotations

import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.parser import TreeBuilder
from repro.html.serializer import serialize
from repro.html.tokenizer import StartTagToken, tokenize

from .reference_tokenizer import reference_tokenize

#: Fragments that steer the scanner into each branch: tag and comment
#: openers, quotes, ``=``, ``/``, every whitespace kind (form feed is
#: whitespace to ``isspace`` but not an attribute-name stop), names of
#: raw-text elements, non-ASCII letters and digits (``isalpha``/``isalnum``
#: beyond ASCII) and entity fragments.
FRAGMENTS = (
    "<", "</", "<!--", "-->", "<!", "<!DOCTYPE html>", ">", "/>", "/",
    '"', "'", "=", " ", "\t", "\n", "\r", "\x0c",
    "div", "DIV", "p", "a", "x", "ring", "nonce", "id", "-", "_", ":",
    "script", "</script", "STYLE", "title", "textarea", "</textarea >",
    "é", "ß", "İ", "Ω", "٣", "𝟘", "日本",
    "&amp;", "&lt;", "&#65;", "&#x42;", "&#xZZ;", "&", "&nbsp", ";", "&#",
)

markup = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)


def stream(tokens) -> list[tuple]:
    """Each token as its type plus every field; attribute dicts as ordered items."""
    described = []
    for token in tokens:
        values = []
        for spec in fields(token):
            value = getattr(token, spec.name)
            values.append(list(value.items()) if isinstance(value, dict) else value)
        described.append((type(token), *values))
    return described


def assert_same_stream(text: str) -> None:
    assert stream(tokenize(text)) == stream(reference_tokenize(text)), repr(text)


@settings(max_examples=400, deadline=None)
@given(text=markup)
def test_token_streams_are_equal_on_random_markup(text):
    assert_same_stream(text)


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=60))
def test_token_streams_are_equal_on_arbitrary_text(text):
    assert_same_stream(text)


def test_token_streams_are_equal_on_seeded_fragment_soup():
    rng = random.Random(20100621)
    for _ in range(5_000):
        assert_same_stream("".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 50))))


def test_trees_built_from_either_stream_serialise_identically():
    rng = random.Random(7)
    for _ in range(500):
        text = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 50)))
        fast = TreeBuilder().build(tokenize(text))
        oracle = TreeBuilder().build(reference_tokenize(text))
        assert serialize(fast) == serialize(oracle), repr(text)


def test_tokens_are_slotted():
    token = next(tokenize('<div id="x">'))
    assert isinstance(token, StartTagToken)
    assert not hasattr(token, "__dict__")
