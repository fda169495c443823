"""Test oracle: the original recursive renderer.

:class:`RecursiveRenderer` builds and lays out the box tree with one Python
frame per tree level and counts boxes with a second recursive walk after
layout.  The production :class:`~repro.browser.renderer.Renderer` does both
with explicit stacks and counts boxes while it builds them; the equivalence
tests require equal :class:`RenderStats` and equal box geometry.
"""

from __future__ import annotations

from repro.browser.renderer import (
    BLOCK_ELEMENTS,
    CHAR_WIDTH,
    DEFAULT_VIEWPORT_WIDTH,
    LINE_HEIGHT,
    NON_RENDERED,
    LayoutBox,
    RenderStats,
    measure_text,
)
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import Node, NodeType, TextNode


def _box_count(box: LayoutBox) -> int:
    return 1 + sum(_box_count(child) for child in box.children)


class RecursiveRenderer:
    """The original renderer: recursive box build and layout, then a box-count walk."""

    def __init__(self, viewport_width: float = DEFAULT_VIEWPORT_WIDTH) -> None:
        self.viewport_width = viewport_width

    def render(self, document: Document) -> tuple[LayoutBox, RenderStats]:
        """Render ``document`` and return the root box plus statistics."""
        stats = RenderStats()
        root_element = document.document_element
        root_box = LayoutBox(element_tag="viewport", width=self.viewport_width, is_block=True)
        if root_element is not None:
            child_box = self._build_box(root_element, stats)
            if child_box is not None:
                root_box.children.append(child_box)
        height = self._layout(root_box, 0.0, 0.0, self.viewport_width)
        root_box.height = height
        stats.document_height = height
        stats.boxes = _box_count(root_box)
        return root_box, stats

    # -- box construction -----------------------------------------------------------

    def _build_box(self, node: Node, stats: RenderStats) -> LayoutBox | None:
        if node.node_type is NodeType.TEXT:
            assert isinstance(node, TextNode)
            text = node.data.strip()
            if not text:
                return None
            stats.text_runs += 1
            stats.characters += len(text)
            return LayoutBox(
                element_tag="#text",
                is_block=False,
                text_length=len(text),
                text_width=measure_text(text),
            )
        if not isinstance(node, Element):
            return None
        if node.tag_name in NON_RENDERED:
            stats.skipped_elements += 1
            return None
        box = LayoutBox(element_tag=node.tag_name, is_block=node.tag_name in BLOCK_ELEMENTS)
        for child in node.children:
            child_box = self._build_box(child, stats)
            if child_box is not None:
                box.children.append(child_box)
        return box

    # -- layout ------------------------------------------------------------------------

    def _layout(self, box: LayoutBox, x: float, y: float, available_width: float) -> float:
        """Flow layout: returns the height consumed by ``box``."""
        box.x = x
        box.y = y
        box.width = available_width if box.is_block else min(available_width, box.text_width)
        if not box.children:
            if box.element_tag == "#text":
                # Wrap the text run into as many lines as the width requires.
                usable = max(available_width, CHAR_WIDTH)
                lines = max(1, -(-int(box.text_width) // int(usable)))
                box.height = lines * LINE_HEIGHT
            else:
                box.height = LINE_HEIGHT if not box.is_block else 0.0
            return box.height

        cursor_y = y
        cursor_x = x
        line_height = 0.0
        total_height = 0.0
        for child in box.children:
            if child.is_block:
                if line_height:
                    cursor_y += line_height
                    total_height += line_height
                    line_height = 0.0
                    cursor_x = x
                consumed = self._layout(child, x, cursor_y, available_width)
                cursor_y += consumed
                total_height += consumed
            else:
                child_width = max(child.text_width, CHAR_WIDTH)
                if cursor_x + child_width > x + available_width and cursor_x > x:
                    cursor_y += max(line_height, LINE_HEIGHT)
                    total_height += max(line_height, LINE_HEIGHT)
                    cursor_x = x
                    line_height = 0.0
                consumed = self._layout(child, cursor_x, cursor_y, available_width - (cursor_x - x))
                cursor_x += child_width
                line_height = max(line_height, consumed)
        if line_height:
            total_height += line_height
        box.height = total_height
        return total_height
