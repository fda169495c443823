"""Synthetic renderer.

The paper's Figure 4 measures "parsing and rendering time" in the Lobo
browser.  The reproduction has no pixels, but the overhead comparison only
needs a rendering stage whose cost scales with page size the way layout
does, so that the ESCUDO bookkeeping added to the pipeline can be expressed
as a percentage of realistic work.

The renderer builds a box tree from the DOM: block and inline boxes,
synthetic text measurement (per-character advance widths), and a simple
flow layout that assigns every box a position and size inside a viewport.
The amount of arithmetic per element is deliberately comparable to what a
simple layout engine does, and it is completely deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import Node, NodeType, TextNode

#: Elements laid out as blocks; everything else is treated as inline.
BLOCK_ELEMENTS = frozenset(
    {"html", "body", "div", "p", "h1", "h2", "h3", "h4", "ul", "ol", "li", "table",
     "tr", "td", "th", "form", "blockquote", "pre", "section", "article", "header",
     "footer", "nav", "fieldset"}
)

#: Elements that never produce boxes.
NON_RENDERED = frozenset({"head", "script", "style", "meta", "link", "title"})

#: Synthetic font metrics: per-character advance widths (a small proportional
#: font table) and line height.  Text measurement walks the glyphs the way a
#: simple layout engine does, so rendering cost scales with text volume.
CHAR_WIDTH = 7.2
LINE_HEIGHT = 16.0
DEFAULT_VIEWPORT_WIDTH = 1024.0

_ADVANCE_WIDTHS = {
    " ": 3.6, ".": 3.2, ",": 3.2, "i": 3.4, "l": 3.4, "j": 3.6, "f": 4.2, "t": 4.4,
    "r": 4.8, "s": 5.8, "a": 6.4, "c": 6.2, "e": 6.4, "o": 6.8, "n": 6.8, "u": 6.8,
    "m": 10.4, "w": 9.6, "W": 12.2, "M": 11.6, "0": 7.0, "1": 7.0, "2": 7.0,
}


def measure_text(text: str) -> float:
    """Synthetic text measurement: sum of per-character advance widths."""
    total = 0.0
    widths = _ADVANCE_WIDTHS
    for ch in text:
        total += widths.get(ch, CHAR_WIDTH)
    return total


@dataclass(slots=True)
class LayoutBox:
    """One box in the layout tree."""

    element_tag: str
    x: float = 0.0
    y: float = 0.0
    width: float = 0.0
    height: float = 0.0
    is_block: bool = True
    text_length: int = 0
    text_width: float = 0.0
    children: list["LayoutBox"] = field(default_factory=list)

    def box_count(self) -> int:
        """Total number of boxes in this subtree (including this one)."""
        count = 0
        stack = [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count


@dataclass
class RenderStats:
    """Aggregate counters describing one rendering pass."""

    boxes: int = 0
    text_runs: int = 0
    characters: int = 0
    document_height: float = 0.0
    skipped_elements: int = 0


class Renderer:
    """Builds and lays out the box tree for a document.

    Both passes walk the tree with explicit stacks in document order, so
    nesting depth costs no Python frames and a deeply nested page renders
    like any other.  Boxes are counted as they are built.
    """

    def __init__(self, viewport_width: float = DEFAULT_VIEWPORT_WIDTH) -> None:
        self.viewport_width = viewport_width

    def render(self, document: Document) -> tuple[LayoutBox, RenderStats]:
        """Render ``document`` and return the root box plus statistics."""
        stats = RenderStats()
        root_element = document.document_element
        root_box = LayoutBox(element_tag="viewport", width=self.viewport_width, is_block=True)
        stats.boxes = 1  # the viewport box
        if root_element is not None:
            self._build_boxes(root_element, root_box, stats)
        height = self._layout(root_box, 0.0, 0.0, self.viewport_width)
        root_box.height = height
        stats.document_height = height
        return root_box, stats

    # -- box construction -----------------------------------------------------------

    def _build_boxes(self, root: Element, root_box: LayoutBox, stats: RenderStats) -> None:
        """Append the box subtree of ``root`` to ``root_box``.

        Pre-order over the DOM with a stack of child iterators: each
        rendered node's box is appended to its parent's box when the node
        is visited, so box order and the counters match a recursive build.
        Boxes are built with positional arguments (tag, x, y, width,
        height, is_block, text_length, text_width): keyword calls cost about
        half as much again per box.
        """
        boxes = text_runs = characters = skipped = 0
        text_type = NodeType.TEXT
        stack: list[tuple[Iterator[Node], Callable[[LayoutBox], None]]] = []
        nodes: Iterator[Node] = iter((root,))
        append = root_box.children.append
        while True:
            for node in nodes:
                if node.node_type is text_type:
                    assert isinstance(node, TextNode)
                    text = node.data.strip()
                    if text:
                        text_runs += 1
                        characters += len(text)
                        boxes += 1
                        append(LayoutBox(
                            "#text", 0.0, 0.0, 0.0, 0.0, False, len(text), measure_text(text)
                        ))
                    continue
                if not isinstance(node, Element):
                    continue
                tag = node.tag_name
                if tag in NON_RENDERED:
                    skipped += 1
                    continue
                box = LayoutBox(tag, 0.0, 0.0, 0.0, 0.0, tag in BLOCK_ELEMENTS)
                boxes += 1
                append(box)
                if node.children:
                    stack.append((nodes, append))
                    nodes = iter(node.children)
                    append = box.children.append
                    break
            else:
                if not stack:
                    break
                nodes, append = stack.pop()
        stats.boxes += boxes
        stats.text_runs += text_runs
        stats.characters += characters
        stats.skipped_elements += skipped

    # -- layout ------------------------------------------------------------------------

    def _layout(self, root: LayoutBox, x: float, y: float, available_width: float) -> float:
        """Flow layout: returns the height consumed by ``root``.

        The box whose children are being placed keeps its flow cursor in
        locals; descending into a child with children saves them on a stack,
        and the child's consumed height is folded back in when it finishes.
        Arithmetic and its order are those of a recursive layout.  A saved
        frame's last slot is the width the child takes on its line when it
        is inline, ``None`` when it is a block.
        """
        box = root
        box.x = x
        box.y = y
        box.width = available_width if box.is_block else min(available_width, box.text_width)
        if not box.children:
            box.height = _leaf_height(box, available_width)
            return box.height
        stack: list[tuple] = []
        left, avail, children = x, available_width, iter(box.children)
        cursor_x, cursor_y, line_height, total = x, y, 0.0, 0.0
        while True:
            for child in children:
                if child.is_block:
                    if line_height:
                        cursor_y += line_height
                        total += line_height
                        line_height = 0.0
                        cursor_x = left
                    child_x, child_width, inline_width = left, avail, None
                    child.width = avail
                else:
                    inline_width = max(child.text_width, CHAR_WIDTH)
                    if cursor_x + inline_width > left + avail and cursor_x > left:
                        cursor_y += max(line_height, LINE_HEIGHT)
                        total += max(line_height, LINE_HEIGHT)
                        cursor_x = left
                        line_height = 0.0
                    child_x, child_width = cursor_x, avail - (cursor_x - left)
                    child.width = min(child_width, child.text_width)
                child.x = child_x
                child.y = cursor_y
                if child.children:
                    stack.append((box, left, avail, children, cursor_x, cursor_y,
                                  line_height, total, inline_width))
                    box, left, avail, children = child, child_x, child_width, iter(child.children)
                    cursor_x, line_height, total = child_x, 0.0, 0.0
                    break
                consumed = child.height = _leaf_height(child, child_width)
                if inline_width is None:
                    cursor_y += consumed
                    total += consumed
                else:
                    cursor_x += inline_width
                    line_height = max(line_height, consumed)
            else:
                if line_height:
                    total += line_height
                box.height = consumed = total
                if not stack:
                    return consumed
                (box, left, avail, children, cursor_x, cursor_y,
                 line_height, total, inline_width) = stack.pop()
                if inline_width is None:
                    cursor_y += consumed
                    total += consumed
                else:
                    cursor_x += inline_width
                    line_height = max(line_height, consumed)


def _leaf_height(box: LayoutBox, available_width: float) -> float:
    """Height of a box without children laid out in ``available_width``."""
    if box.element_tag == "#text":
        # Wrap the text run into as many lines as the width requires.
        usable = max(available_width, CHAR_WIDTH)
        lines = max(1, -(-int(box.text_width) // int(usable)))
        return lines * LINE_HEIGHT
    return LINE_HEIGHT if not box.is_block else 0.0


def render_document(document: Document, viewport_width: float = DEFAULT_VIEWPORT_WIDTH) -> RenderStats:
    """Convenience wrapper returning only the statistics."""
    _, stats = Renderer(viewport_width).render(document)
    return stats
