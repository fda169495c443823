"""HTML tree builder.

Turns the token stream from :mod:`repro.html.tokenizer` into a
:class:`~repro.dom.document.Document`.  Two pieces of ESCUDO-specific
behaviour live here because they *must* happen during tree construction:

* **Nonce-checked ``</div>`` handling** -- when the page uses markup
  randomisation, a closing ``div`` may only close an AC ``div`` whose nonce
  it repeats.  A mismatching terminator is ignored entirely, which is what
  defeats node-splitting attacks (Section 5 of the paper).  The caller
  passes a :class:`~repro.core.nonce.NonceValidator`; without one, nonces
  are still matched when present (the safe default) but mismatches are not
  recorded anywhere.

* **Implied end tags** -- a small amount of browser-style error recovery
  (``<p>``/``<li>`` auto-closing, stray end tags ignored) so that the
  synthetic applications' markup and the attack corpus parse predictably.

Security labelling is *not* done here: the tree builder produces an
unlabelled DOM, and :mod:`repro.browser.labeler` walks it afterwards to
assign security contexts.  Keeping the two phases separate mirrors the
paper's "extract, then track, then enforce" structure and lets the overhead
benchmark time them independently.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.nonce import NONCE_ATTRIBUTE, NonceValidator
from repro.dom.document import Document
from repro.dom.element import Element, VOID_ELEMENTS
from repro.dom.node import CommentNode, Node, TextNode

from .tokenizer import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    RawTextToken,
    StartTagToken,
    TextToken,
    Token,
    tokenize,
)

#: Tags that implicitly close an open element with the same name.
_SELF_NESTING_CLOSERS = frozenset({"p", "li", "option", "tr", "td", "th"})


class TreeBuilder:
    """Stateful builder consuming tokens and growing a document tree."""

    def __init__(
        self,
        url: str = "about:blank",
        nonce_validator: NonceValidator | None = None,
    ) -> None:
        self.document = Document(url=url)
        self.nonce_validator = nonce_validator
        self._stack: list[Element] = []
        self._ignored_end_tags = 0
        #: True once an AC tag was built.  The builder never removes an
        #: element, so this equals ``document_uses_escudo`` on the result
        #: without a second walk over the tree.
        self.uses_escudo = False

    # -- public API -----------------------------------------------------------------

    def build(self, tokens: Iterable[Token]) -> Document:
        """Consume every token and return the finished document.

        One loop dispatches on each token's exact type and keeps the node
        receiving children in a local.  Every node it creates is fresh (no
        parent, no subtree, owned by no other document), so it is attached
        with :meth:`Node._append` rather than the checking ``append_child``.
        """
        document = self.document
        stack = self._stack
        current: Node = stack[-1] if stack else document
        new_element = Element._parsed
        for token in tokens:
            kind = type(token)
            if kind is TextToken or kind is RawTextToken:
                if token.data:
                    current._append(TextNode(token.data))
            elif kind is StartTagToken:
                name = token.name
                if name in _SELF_NESTING_CLOSERS and stack and stack[-1].tag_name == name:
                    stack.pop()
                    current = stack[-1] if stack else document
                element = new_element(name, token.attributes)
                if not self.uses_escudo and name == "div":
                    self.uses_escudo = element.is_ac_tag
                current._append(element)
                if not (token.self_closing or name in VOID_ELEMENTS):
                    stack.append(element)
                    current = element
            elif kind is EndTagToken:
                # Find the nearest open element with this tag name; a stray
                # end tag is ignored.
                name = token.name
                index = len(stack) - 1
                while index >= 0 and stack[index].tag_name != name:
                    index -= 1
                if index < 0:
                    continue
                candidate = stack[index]
                if name == "div" and not self._nonce_ok(
                    candidate.get_attribute(NONCE_ATTRIBUTE),
                    token.attributes.get(NONCE_ATTRIBUTE),
                    candidate,
                ):
                    # The terminator does not legitimately close this AC tag.
                    # Per the paper it is ignored outright, so injected content
                    # stays confined inside the scope it was inserted into.
                    self._ignored_end_tags += 1
                    continue
                # Close the candidate (and anything opened after it).
                del stack[index:]
                current = stack[-1] if stack else document
            elif kind is CommentToken:
                current._append(CommentNode(token.data))
            elif kind is DoctypeToken:
                document.doctype = token.data
        return document

    @property
    def ignored_end_tags(self) -> int:
        """Number of end tags dropped by nonce validation (attack attempts)."""
        return self._ignored_end_tags

    # -- nonce validation --------------------------------------------------------------

    def _nonce_ok(self, opening: str | None, closing: str | None, element: Element) -> bool:
        if opening is None:
            return True
        if self.nonce_validator is not None:
            # The descriptive context (used in mismatch reports) is only built
            # when the nonces actually disagree; the common matching case must
            # stay cheap because it runs for every AC-tag terminator.
            if closing is not None and closing == opening:
                return True
            return self.nonce_validator.matches(
                opening, closing, context=f"</div> closing {element.scope_path}"
            )
        return closing == opening


def parse_document(
    markup: str,
    url: str = "about:blank",
    nonce_validator: NonceValidator | None = None,
) -> Document:
    """Parse a full HTML document."""
    builder = TreeBuilder(url=url, nonce_validator=nonce_validator)
    return builder.build(tokenize(markup))


def parse_document_with_stats(
    markup: str,
    url: str = "about:blank",
    nonce_validator: NonceValidator | None = None,
) -> tuple[Document, TreeBuilder]:
    """Parse a document and also return the builder (for its counters)."""
    builder = TreeBuilder(url=url, nonce_validator=nonce_validator)
    document = builder.build(tokenize(markup))
    return document, builder


def parse_fragment(
    markup: str,
    owner: Document | None = None,
    nonce_validator: NonceValidator | None = None,
) -> list[Node]:
    """Parse an HTML fragment (e.g. an ``innerHTML`` assignment).

    Returns the top-level nodes of the fragment, owned by ``owner`` when one
    is given.  Nonce validation applies here too: injected terminators inside
    dynamically written markup are just as ignored as in static markup.
    """
    builder = TreeBuilder(url=owner.url if owner is not None else "about:blank",
                          nonce_validator=nonce_validator)
    document = builder.build(tokenize(markup))
    children = list(document.children)
    for child in children:
        document.remove_child(child)
        if owner is not None:
            _reown(child, owner)
    return children


def _reown(node: Node, owner: Document) -> None:
    node.owner_document = owner
    for descendant in node.descendants():
        descendant.owner_document = owner
