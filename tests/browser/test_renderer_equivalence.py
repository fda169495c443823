"""The iterative renderer against the recursive oracle.

:class:`~repro.browser.renderer.Renderer` builds and lays out boxes with
explicit stacks and counts boxes as it builds them.  These tests require
the same :class:`RenderStats` and the same boxes -- ``(tag, x, y, width,
height)`` in document order -- as :class:`RecursiveRenderer` on random trees
and on the Figure-4 pages, at a wide, a narrow and a degenerate viewport.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import all_workloads
from repro.browser.renderer import LayoutBox, Renderer
from repro.html.parser import parse_document

from .recursive_renderer import RecursiveRenderer

VIEWPORTS = (1024.0, 300.0, 5.0)

#: Block, inline, void, non-rendered and raw-text tags.
TAGS = ("div", "p", "li", "td", "span", "b", "a", "img", "br", "head", "script", "title", "style")
TEXTS = ("", " ", "\n  ", "x", "a word", "mmmm wwww MMMM", "lorem ipsum dolor sit amet " * 6)


@st.composite
def trees(draw, depth=3):
    """Random markup: nested elements, text runs of every width, comments."""
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        if kind < 6 and depth:
            tag = draw(st.sampled_from(TAGS))
            pieces.append(f"<{tag}>{draw(trees(depth=depth - 1))}</{tag}>")
        elif kind < 9:
            pieces.append(draw(st.sampled_from(TEXTS)))
        else:
            pieces.append("<!-- note -->")
    return "".join(pieces)


def boxes(root: LayoutBox) -> list[tuple]:
    """Every box as ``(tag, x, y, width, height)``, pre-order."""
    out = []
    stack = [root]
    while stack:
        box = stack.pop()
        out.append((box.element_tag, box.x, box.y, box.width, box.height))
        stack.extend(reversed(box.children))
    return out


def assert_same_rendering(markup: str) -> None:
    document = parse_document(markup)
    for width in VIEWPORTS:
        root, stats = Renderer(width).render(document)
        oracle_root, oracle_stats = RecursiveRenderer(width).render(document)
        assert stats == oracle_stats, (width, markup)
        assert boxes(root) == boxes(oracle_root), (width, markup)
        assert stats.boxes == root.box_count()


@settings(max_examples=200, deadline=None)
@given(body=trees())
def test_random_trees_render_identically(body):
    assert_same_rendering(f"<html><body>{body}</body></html>")


@settings(max_examples=50, deadline=None)
@given(markup=trees())
def test_random_documents_without_a_body_render_identically(markup):
    assert_same_rendering(markup)


def test_figure4_pages_render_identically():
    for seed in (42, 7):
        for page in all_workloads(nonce_seed=seed):
            assert_same_rendering(page.escudo_html)


def test_layout_boxes_are_slotted():
    root, _ = Renderer().render(parse_document("<p>x</p>"))
    assert not hasattr(root, "__dict__")
