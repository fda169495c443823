"""The iterative, memoised labeler against the recursive oracle.

:class:`~repro.browser.labeler.PageLabeler` parses each distinct
``(label key, bound)`` pair once per pass and lets equal scopes share one
context.  These tests label the same trees with it and with
:class:`RecursiveLabeler` (which parses every AC tag) and require equal
per-element contexts and equal :class:`LabelingStats` -- the ring histogram
in the same key order included -- on the Figure-4 pages, on every page the
attack corpus loads, and on crafted markup aimed at each part of the memo key.
The tree builder's ``uses_escudo`` flag is checked against a full tree walk
on the same pages.
"""

from __future__ import annotations

import pytest

import repro.browser.browser as browser_module
from repro.attacks.harness import registered_attacks, run_attacks
from repro.bench.workloads import all_workloads
from repro.browser.labeler import PageLabeler, document_uses_escudo
from repro.browser.loader import _upgraded_for_ac_tags
from repro.core.config import PageConfiguration
from repro.core.nonce import NonceValidator
from repro.core.origin import Origin
from repro.core.rings import Ring, RingSet
from repro.html.parser import TreeBuilder, parse_document
from repro.html.tokenizer import tokenize

from .recursive_labeler import RecursiveLabeler

ORIGIN = Origin.parse("http://app.example.com")


def _variants(header_config: PageConfiguration):
    """``(name, configuration, escudo_enabled)`` for every labelling mode."""
    legacy = PageConfiguration.legacy()
    return (
        ("escudo-headers", header_config, True),
        ("escudo-ac-upgraded", _upgraded_for_ac_tags(legacy), True),
        ("escudo-seven-rings", PageConfiguration(rings=RingSet(6)), True),
        ("sop", legacy, False),
    )


def assert_equivalent(markup: str, url: str, origin: Origin, configuration, escudo_enabled, enforce_scoping):
    """Label ``markup`` with both labelers and compare everything they produce."""
    fast_doc = parse_document(markup, url=url)
    oracle_doc = parse_document(markup, url=url)
    options = dict(escudo_enabled=escudo_enabled, enforce_scoping=enforce_scoping)
    fast_stats = PageLabeler(origin, configuration, **options).label_document(fast_doc)
    oracle_stats = RecursiveLabeler(origin, configuration, **options).label_document(oracle_doc)
    fast_elements = list(fast_doc.elements())
    oracle_elements = list(oracle_doc.elements())
    assert len(fast_elements) == len(oracle_elements)
    for fast, oracle in zip(fast_elements, oracle_elements):
        assert fast.security_context == oracle.security_context, (
            f"<{fast.tag_name} {fast.attributes}>: "
            f"{fast.security_context} != {oracle.security_context}"
        )
    assert fast_stats == oracle_stats
    assert list(fast_stats.ring_histogram.items()) == list(oracle_stats.ring_histogram.items())


# -- the Figure-4 pages -------------------------------------------------------------------


FIG4_PAGES = [page for seed in (42, 7) for page in all_workloads(nonce_seed=seed)]


@pytest.mark.parametrize("enforce_scoping", [True, False], ids=["scoping", "no-scoping"])
@pytest.mark.parametrize("page", FIG4_PAGES, ids=[f"{p.name}-{i // 8}" for i, p in enumerate(FIG4_PAGES)])
def test_fig4_pages_label_like_the_oracle(page, enforce_scoping):
    origin = Origin.parse(page.url)
    for _, configuration, escudo_enabled in _variants(page.configuration):
        assert_equivalent(page.escudo_html, page.url, origin, configuration, escudo_enabled, enforce_scoping)


# -- every page the attack corpus loads ------------------------------------------------------


@pytest.fixture(scope="module")
def attack_pages():
    """``(body, url, configuration)`` of every page loaded while the corpus runs."""
    recorded = []
    original = browser_module.load_page

    def recording(body, url, *, configuration=None, **kwargs):
        recorded.append((body, str(url), configuration))
        return original(body, url, configuration=configuration, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(browser_module, "load_page", recording)
        run_attacks(registered_attacks(), "escudo")
    distinct = {(body, url): configuration for body, url, configuration in recorded}
    return [(body, url, configuration) for (body, url), configuration in distinct.items()]


def test_attack_corpus_pages_label_like_the_oracle(attack_pages):
    assert len(attack_pages) >= 10
    for body, url, header_config in attack_pages:
        origin = Origin.parse(url)
        config = header_config if header_config is not None else PageConfiguration.legacy()
        for _, configuration, escudo_enabled in _variants(config):
            for enforce_scoping in (True, False):
                assert_equivalent(body, url, origin, configuration, escudo_enabled, enforce_scoping)


# -- crafted markup aimed at the memo key --------------------------------------------------------


CRAFTED = {
    # One attribute set under two bounds: ring 2 inside ring 1, ring 3 inside ring 3.
    "same-label-two-bounds": (
        '<div ring="1"><div ring="2" r="1" id="a">a</div></div>'
        '<div ring="3"><div ring="2" r="1" id="b">b</div></div>'
    ),
    # ``execute`` alone is no ACL; after a malformed ``x`` it is (the last alias wins).
    "execute-alias-and-order": (
        '<div ring="2" execute="1" id="a">a</div>'
        '<div ring="2" execute="3" id="b">b</div>'
        '<div ring="2" x="bad" execute="1" id="c">c</div>'
        '<div ring="2" x="bad" execute="2" id="d">d</div>'
        '<div ring="2" execute="2" x="bad" id="e">e</div>'
        '<div ring="2" use="1" execute="2" id="f">f</div>'
        '<div ring="2" execute="2" use="1" id="g">g</div>'
    ),
    "long-names": (
        '<div ring="2" read="1" write="0" use="2" id="a">a</div>'
        '<div ring="2" read="2" write="1" use="2" id="b">b</div>'
        '<div ring="2" read="2" write="1" use="bad" id="c">c</div>'
    ),
    "malformed-ring": (
        '<div ring="abc" r="1" id="a">a</div>'
        '<div ring="-1" r="1" id="b">b</div>'
        '<div ring=" 2 " r="1" id="c">c</div>'
        '<div ring="99" r="1" id="d">d</div>'
        '<div ring="" r="1" id="e">e</div>'
    ),
    "nonce-only": (
        '<div ring="1"><div nonce="aaaa" id="a">a</div nonce="aaaa"></div>'
        '<div ring="2"><div nonce="bbbb" id="b">b</div nonce="bbbb"></div>'
        '<div nonce="cccc" id="c">c</div nonce="cccc">'
    ),
    "non-div-with-ring": (
        '<div ring="2"><span ring="0" id="a">a</span><p ring="1" r="3" id="b">b</p></div>'
        '<section ring="0" id="c">c</section>'
    ),
}


@pytest.mark.parametrize("enforce_scoping", [True, False], ids=["scoping", "no-scoping"])
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_markup_labels_like_the_oracle(name, enforce_scoping):
    markup = f"<html><body>{CRAFTED[name]}</body></html>"
    for _, configuration, escudo_enabled in _variants(PageConfiguration(rings=RingSet(3))):
        assert_equivalent(markup, "http://app.example.com/", ORIGIN, configuration, escudo_enabled, enforce_scoping)


def _contexts(markup: str):
    document = parse_document(f"<html><body>{markup}</body></html>")
    PageLabeler(ORIGIN, PageConfiguration(rings=RingSet(3))).label_document(document)
    return {element.id: element.security_context for element in document.elements() if element.id}


def test_bound_is_part_of_the_memo_key():
    contexts = _contexts(CRAFTED["same-label-two-bounds"])
    assert contexts["a"].ring == Ring(2)
    assert contexts["b"].ring == Ring(3)


def test_execute_alias_and_attribute_order_reach_the_acl():
    contexts = _contexts(CRAFTED["execute-alias-and-order"])
    assert contexts["a"].acl.use == contexts["b"].acl.use == Ring(0)
    assert [contexts[key].acl.use for key in "cdefg"] == [Ring(1), Ring(2), Ring(0), Ring(2), Ring(1)]


def test_equal_labels_share_one_context_object():
    contexts = _contexts(
        '<div ring="2" r="1" nonce="n1" id="a">a</div nonce="n1">'
        '<div ring="2" r="1" nonce="n2" id="b">b</div nonce="n2">'
    )
    assert contexts["a"] is contexts["b"]


# -- the tree builder's AC-tag flag ---------------------------------------------------------------


def _built(markup: str):
    validator = NonceValidator()
    builder = TreeBuilder(url="http://app.example.com/", nonce_validator=validator)
    return builder, builder.build(tokenize(markup))


def test_builder_flag_matches_a_tree_walk_on_fig4_and_attack_pages(attack_pages):
    bodies = [page.escudo_html for page in FIG4_PAGES] + [page.plain_html for page in FIG4_PAGES]
    bodies += [body for body, _, _ in attack_pages]
    flags = set()
    for body in bodies:
        builder, document = _built(body)
        assert builder.uses_escudo == document_uses_escudo(document)
        flags.add(builder.uses_escudo)
    assert flags == {True, False}


@pytest.mark.parametrize(
    "markup",
    [
        # A mismatched terminator is ignored: the AC tag stays open and counts.
        '<div ring="2" nonce="good"><p>x</p></div nonce="evil"><p>y</p></div nonce="good">',
        '<div class="plain"><p>x</p></div nonce="evil"><div w="0">z</div>',
        '<div class="plain"></div nonce="evil"><span ring="1">no AC tag</span>',
        "<p>no divs at all</p>",
    ],
)
def test_builder_flag_matches_a_tree_walk_with_ignored_terminators(markup):
    builder, document = _built(f"<html><body>{markup}</body></html>")
    assert builder.uses_escudo == document_uses_escudo(document)

