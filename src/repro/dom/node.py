"""DOM node base classes.

The browser represents a parsed page as a tree of nodes: elements, text,
comments and the document root.  This module provides the structural layer
-- parent/child links, insertion and removal, tree traversal -- with no
security semantics.  Mediation lives one layer up, in
:mod:`repro.dom.dom_api`, which is the only surface scripts can reach.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional


class NodeType(enum.IntEnum):
    """Subset of DOM node types the reproduction models."""

    ELEMENT = 1
    TEXT = 3
    COMMENT = 8
    DOCUMENT = 9


class Node:
    """Base class for every node in the document tree."""

    node_type: NodeType = NodeType.ELEMENT

    def __init__(self) -> None:
        self.parent: Optional["Node"] = None
        self.children: list["Node"] = []
        self.owner_document = None  # set by Document.adopt / the parser

    # -- structure ----------------------------------------------------------------

    def _note_tree_change(self) -> None:
        """Invalidate the owning document's ``getElementById`` index.

        ``owner_document`` is authoritative for attached nodes (adoption
        re-owns whole subtrees, see :meth:`_adopt`), so invalidation is one
        attribute check.  Mutations on a detached subtree conservatively
        invalidate the owning document too -- harmless over-invalidation,
        and free while the index is unbuilt.
        """
        owner = self.owner_document
        if owner is not None and owner._id_index is not None:  # type: ignore[attr-defined]
            owner._id_index = None  # type: ignore[attr-defined]

    def _adopt(self, child: "Node") -> None:
        """Point ``child`` (and, when it moves documents, its whole subtree)
        at this node's owner document.

        Re-owning the subtree keeps ``owner_document`` authoritative for
        every attached node; the walk only runs on cross-document adoption,
        never on same-document moves or parser appends.
        """
        owner = self.owner_document
        if child.owner_document is owner:
            return
        child.owner_document = owner
        for node in child.descendants():
            node.owner_document = owner

    def append_child(self, child: "Node") -> "Node":
        """Append ``child`` (detaching it from any previous parent) and return it."""
        if child is self or self._is_ancestor(child):
            raise ValueError("cannot append a node inside itself")
        child.detach()
        child.parent = self
        self._adopt(child)
        self.children.append(child)
        self._note_tree_change()
        return child

    def _append(self, child: "Node") -> "Node":
        """Append a node the tree builder just created.

        A fresh node has no parent, no subtree and no other owner, and the
        document's id index is unbuilt while it is being parsed, so none of
        ``append_child``'s detach, ancestor, adoption or invalidation steps
        can do anything.
        """
        child.parent = self
        child.owner_document = self.owner_document
        self.children.append(child)
        return child

    def insert_before(self, new_child: "Node", reference: "Node | None") -> "Node":
        """Insert ``new_child`` immediately before ``reference`` (or append)."""
        if reference is None:
            return self.append_child(new_child)
        if reference.parent is not self:
            raise ValueError("reference node is not a child of this node")
        new_child.detach()
        new_child.parent = self
        self._adopt(new_child)
        index = self.children.index(reference)
        self.children.insert(index, new_child)
        self._note_tree_change()
        return new_child

    def remove_child(self, child: "Node") -> "Node":
        """Remove ``child`` and return it."""
        if child.parent is not self:
            raise ValueError("node to remove is not a child of this node")
        self._note_tree_change()
        self.children.remove(child)
        child.parent = None
        return child

    def detach(self) -> None:
        """Remove this node from its parent, if attached."""
        if self.parent is not None:
            self.parent.remove_child(self)

    def replace_children(self, new_children: list["Node"]) -> None:
        """Drop every existing child and adopt ``new_children`` in order."""
        for child in list(self.children):
            self.remove_child(child)
        for child in new_children:
            self.append_child(child)

    def _is_ancestor(self, candidate: "Node") -> bool:
        node = self.parent
        while node is not None:
            if node is candidate:
                return True
            node = node.parent
        return False

    # -- cloning ------------------------------------------------------------------

    def _clone_shallow(self) -> "Node":
        """A detached copy of this node without its children.

        Subclasses copy their own payload (text data, attributes).  The copy
        bypasses ``__init__``: cloning is the template cache's hot path, and
        the structural fields are re-established directly.
        """
        clone = type(self).__new__(type(self))
        clone.parent = None
        clone.children = []
        clone.owner_document = None
        return clone

    def clone(self, *, owner=None) -> "Node":
        """Deep structural copy of this subtree.

        The clone shares **no mutable state** with the original: child lists,
        attribute maps and text payloads are fresh objects, so mutating one
        tree can never leak into the other (the aliasing-free guarantee the
        HTML template cache relies on).  Immutable values -- strings and
        frozen :class:`~repro.core.context.SecurityContext` instances -- are
        shared by reference.  ``owner`` becomes the ``owner_document`` of
        every node in the copied subtree.

        Iterative (explicit work stack): cloning is the template cache's
        per-page-load hot path, and a recursive clone pays one Python frame
        per node per tree level.
        """
        copy = self._clone_shallow()
        copy.owner_document = owner
        stack = [(self, copy)]
        pop = stack.pop
        push = stack.append
        while stack:
            source, target = pop()
            target_children = target.children
            for child in source.children:
                child_copy = child._clone_shallow()
                child_copy.owner_document = owner
                child_copy.parent = target
                target_children.append(child_copy)
                if child.children:
                    push((child, child_copy))
        return copy

    # -- traversal -------------------------------------------------------------------

    def descendants(self) -> Iterator["Node"]:
        """Yield every descendant in document order (depth first).

        Iterative (explicit stack) rather than recursive: nested ``yield
        from`` chains cost one generator frame per tree level *per node*,
        which made traversal the hottest path of the whole-document sweeps
        (``elements()``, tag-name queries, serialisation).
        """
        stack = self.children[::-1]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            yield node
            children = node.children
            if children:
                extend(children[::-1])

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def first_child(self) -> Optional["Node"]:
        """First child or ``None``."""
        return self.children[0] if self.children else None

    @property
    def last_child(self) -> Optional["Node"]:
        """Last child or ``None``."""
        return self.children[-1] if self.children else None

    @property
    def next_sibling(self) -> Optional["Node"]:
        """The following sibling, if any."""
        if self.parent is None:
            return None
        siblings = self.parent.children
        index = siblings.index(self)
        return siblings[index + 1] if index + 1 < len(siblings) else None

    @property
    def previous_sibling(self) -> Optional["Node"]:
        """The preceding sibling, if any."""
        if self.parent is None:
            return None
        siblings = self.parent.children
        index = siblings.index(self)
        return siblings[index - 1] if index > 0 else None

    # -- content --------------------------------------------------------------------

    @property
    def text_content(self) -> str:
        """Concatenated text of every descendant text node."""
        parts: list[str] = []
        for node in self.descendants():
            if node.node_type is NodeType.TEXT:
                parts.append(node.data)  # type: ignore[attr-defined]
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} children={len(self.children)}>"


class TextNode(Node):
    """A run of character data."""

    node_type = NodeType.TEXT

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self.data = data

    def _clone_shallow(self) -> "TextNode":
        clone = super()._clone_shallow()
        clone.data = self.data
        return clone

    @property
    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"<TextNode {preview!r}>"


class CommentNode(Node):
    """An HTML comment (``<!-- ... -->``)."""

    node_type = NodeType.COMMENT

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self.data = data

    def _clone_shallow(self) -> "CommentNode":
        clone = super()._clone_shallow()
        clone.data = self.data
        return clone

    @property
    def text_content(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommentNode {self.data[:30]!r}>"
