"""DOM → HTML serialisation.

Round-trips the reproduction's DOM trees back to markup.  Used by the
mediated ``innerHTML`` getter, by the template engine's output stage, and by
tests that assert on rendered pages.
"""

from __future__ import annotations

from repro.dom.document import Document
from repro.dom.element import Element, RAW_TEXT_ELEMENTS, VOID_ELEMENTS
from repro.dom.node import CommentNode, Node, TextNode

from .entities import escape_attribute, escape_text


def serialize(node: Node, *, indent: bool = False) -> str:
    """Serialise a node (and its subtree) to HTML text.

    ``indent`` pretty-prints with two-space indentation; the default compact
    form is byte-stable for round-trip tests.
    """
    pieces: list[str] = []
    if isinstance(node, Document):
        if node.doctype:
            pieces.append(f"<!{node.doctype}>")
            if indent:
                pieces.append("\n")
        _serialize_nodes(node.children, pieces, 0, indent)
    else:
        _serialize_nodes([node], pieces, 0, indent)
    return "".join(pieces)


def serialize_children(node: Node, *, indent: bool = False) -> str:
    """Serialise only the children of ``node`` (the ``innerHTML`` view)."""
    pieces: list[str] = []
    _serialize_nodes(node.children, pieces, 0, indent)
    return "".join(pieces)


def _serialize_nodes(nodes: list[Node], pieces: list[str], depth: int, indent: bool) -> None:
    """Append the markup of ``nodes`` and their subtrees to ``pieces``.

    Explicit work stack in document order: an entry is a ``(node, depth)``
    still to open or an element's closing-tag text, pushed beneath its
    children, so nesting depth costs no Python frames.
    """
    newline = "\n" if indent else ""
    stack: list[tuple[Node, int] | str] = [(child, depth) for child in reversed(nodes)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, depth = item
        pad = "  " * depth if indent else ""
        if isinstance(node, TextNode):
            parent = node.parent
            if isinstance(parent, Element) and parent.tag_name in RAW_TEXT_ELEMENTS:
                text = node.data
            else:
                text = escape_text(node.data)
            if indent:
                stripped = text.strip()
                if stripped:
                    pieces.append(f"{pad}{stripped}{newline}")
            else:
                pieces.append(text)
            continue
        if isinstance(node, CommentNode):
            pieces.append(f"{pad}<!--{node.data}-->{newline}")
            continue
        if isinstance(node, Element):
            attrs = _serialize_attributes(node)
            pieces.append(f"{pad}<{node.tag_name}{attrs}>{newline}")
            if node.tag_name in VOID_ELEMENTS and not node.children:
                continue
            stack.append(f"{pad}</{node.tag_name}>{newline}")
            stack.extend((child, depth + 1) for child in reversed(node.children))
            continue
        # Unknown node types (e.g. a Document nested oddly) serialise their children.
        stack.extend((child, depth) for child in reversed(node.children))


def _serialize_attributes(element: Element) -> str:
    parts = []
    for name, value in element.attributes.items():
        if value == "":
            parts.append(f" {name}")
        else:
            parts.append(f' {name}="{escape_attribute(value)}"')
    return "".join(parts)
