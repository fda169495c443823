"""Deeply nested markup: every tree walker on the page path is iterative.

Page authors control nesting depth.  A walker that recurses once per level
overflows the Python stack near 1,000 levels, so these tests load, render,
serialise, re-parse and script-write a tree 5,000 levels deep -- five times
the default recursion limit.
"""

from __future__ import annotations

import sys

import pytest

from repro.browser.loader import LoaderOptions, load_page
from repro.browser.renderer import Renderer
from repro.core.acl import Acl
from repro.core.context import SecurityContext
from repro.core.monitor import ReferenceMonitor
from repro.core.origin import Origin
from repro.core.rings import as_ring
from repro.dom.dom_api import DomApi
from repro.dom.element import Element
from repro.html.parser import parse_document, parse_fragment
from repro.html.serializer import serialize, serialize_children

DEPTH = 5_000
ORIGIN = Origin.parse("http://forum.example.com")
URL = "http://forum.example.com/deep"


def nested(tag: str, depth: int = DEPTH, text: str = "bottom") -> str:
    return f"<{tag}>" * depth + text + f"</{tag}>" * depth


def deep_page() -> str:
    return f"<html><body>{nested('div')}</body></html>"


def deepest_element(root: Element) -> Element:
    node = root
    while node.element_children():
        node = node.element_children()[0]
    return node


def context(ring: int, label: str) -> SecurityContext:
    return SecurityContext(origin=ORIGIN, ring=as_ring(ring), acl=Acl.uniform(ring), label=label)


def test_depth_exceeds_the_recursion_limit():
    assert DEPTH > 4 * sys.getrecursionlimit()


def test_load_page_renders_a_deep_tree():
    for model in ("escudo", "sop"):
        page = load_page(deep_page(), URL, options=LoaderOptions(model=model))
        # viewport + html + body + DEPTH divs + the text run at the bottom.
        assert page.rendering.boxes == DEPTH + 4
        assert page.rendering.text_runs == 1
        assert page.rendering.characters == len("bottom")
        assert page.labeling.labelled_elements == DEPTH + 2
    root, stats = Renderer().render(page.document)
    assert root.box_count() == stats.boxes == DEPTH + 4


def test_serialize_round_trips_a_deep_tree():
    markup = deep_page()
    document = parse_document(markup)
    assert serialize(document) == markup
    assert serialize(parse_document(serialize(document))) == markup
    indented = serialize(document, indent=True)
    assert indented.count("\n") == 2 * (DEPTH + 2) + 1


def test_parse_fragment_reowns_a_deep_fragment():
    owner = parse_document("<html><body></body></html>", url=URL)
    children = parse_fragment(nested("span"), owner=owner)
    assert len(children) == 1
    assert all(node.owner_document is owner for node in children[0].descendants())
    assert deepest_element(children[0]).owner_document is owner


def _script_writes_deep_inner_html(ring: int):
    document = parse_document(
        '<html><body><div id="region">old</div></body></html>', url=URL
    )
    for element in document.elements():
        element.assign_security_context(context(1, element.tag_name))
    api = DomApi(document, ReferenceMonitor(), context(ring, f"script-ring-{ring}"))
    region = api.get_element_by_id("region")
    return document, api, region


def test_set_inner_html_labels_every_inserted_element():
    document, api, region = _script_writes_deep_inner_html(1)
    assert region.set_inner_html(nested("span")) is True
    container = document.get_element_by_id("region")
    inserted = list(container.element_descendants())
    assert len(inserted) == DEPTH
    assert all(element.security_context is not None for element in inserted)
    assert {element.security_context.ring for element in inserted} == {as_ring(1)}
    assert serialize_children(container) == nested("span")
    assert region.inner_html == nested("span")


def test_ring3_write_to_the_deepest_inserted_node_is_a_clean_deny():
    document, api, region = _script_writes_deep_inner_html(1)
    assert region.set_inner_html(nested("span")) is True
    deepest = deepest_element(document.get_element_by_id("region"))
    weak = DomApi(document, api.monitor, context(3, "script-ring-3"))
    assert weak.wrap(deepest).set_attribute("title", "pwned") is False
    assert weak.last_denial is not None and weak.last_denial.denied
    assert deepest.get_attribute("title") is None


def test_set_inner_html_inserts_nothing_when_labelling_fails(monkeypatch):
    document, api, region = _script_writes_deep_inner_html(1)

    def failing_label(self, element, *, parent):
        raise RuntimeError("labelling failed")

    monkeypatch.setattr(DomApi, "label_created_subtree", failing_label)
    with pytest.raises(RuntimeError):
        region.set_inner_html("<span><b>new</b></span>")
    container = document.get_element_by_id("region")
    assert serialize_children(container) == "old"
    assert all(element.security_context is not None for element in document.elements())
