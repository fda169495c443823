"""Test oracle: the original method-per-construct HTML tokenizer.

:class:`ReferenceTokenizer` scans with one method per markup construct and
keeps its cursor in ``self._pos``.  The production
:func:`~repro.html.tokenizer.tokenize` is one generator frame with the cursor
in a local; the equivalence tests require both to yield equal token streams.
"""

from __future__ import annotations

from typing import Iterator

from repro.dom.element import RAW_TEXT_ELEMENTS
from repro.html.entities import decode_entities
from repro.html.tokenizer import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    RawTextToken,
    StartTagToken,
    TextToken,
    Token,
)


def reference_tokenize(markup: str) -> Iterator[Token]:
    """Yield the oracle's tokens for ``markup``."""
    return ReferenceTokenizer(markup).tokens()


class ReferenceTokenizer:
    """Single-pass scanner over the markup string."""

    def __init__(self, markup: str) -> None:
        self._text = markup
        self._pos = 0
        self._length = len(markup)
        # Lazily lowered copy for raw-text end-tag searches: lowering the
        # whole document once beats re-lowering it per <script>/<title>.
        self._lowered: str | None = None

    def tokens(self) -> Iterator[Token]:
        while self._pos < self._length:
            lt = self._text.find("<", self._pos)
            if lt == -1:
                yield TextToken(decode_entities(self._text[self._pos :]))
                break
            if lt > self._pos:
                yield TextToken(decode_entities(self._text[self._pos : lt]))
                self._pos = lt
            token = self._consume_markup()
            if token is None:
                # Lone '<' that does not open anything: emit as text.
                yield TextToken("<")
                self._pos += 1
                continue
            yield token
            if isinstance(token, StartTagToken) and not token.self_closing \
                    and token.name in RAW_TEXT_ELEMENTS:
                raw = self._consume_raw_text(token.name)
                if raw is not None:
                    yield raw

    # -- markup constructs ---------------------------------------------------------

    def _consume_markup(self) -> Token | None:
        text = self._text
        pos = self._pos
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end == -1:
                data = text[pos + 4 :]
                self._pos = self._length
            else:
                data = text[pos + 4 : end]
                self._pos = end + 3
            return CommentToken(data)
        if text.startswith("<!", pos):
            end = text.find(">", pos + 2)
            if end == -1:
                self._pos = self._length
                return DoctypeToken(text[pos + 2 :].strip())
            self._pos = end + 1
            return DoctypeToken(text[pos + 2 : end].strip())
        if text.startswith("</", pos):
            return self._consume_tag(pos + 2, end_tag=True)
        if pos + 1 < self._length and (text[pos + 1].isalpha()):
            return self._consume_tag(pos + 1, end_tag=False)
        return None

    def _consume_tag(self, name_start: int, *, end_tag: bool) -> Token | None:
        text = self._text
        pos = name_start
        while pos < self._length and (text[pos].isalnum() or text[pos] in "-_:"):
            pos += 1
        name = text[name_start:pos].lower()
        if not name:
            return None
        attributes, pos, self_closing = self._consume_attributes(pos)
        self._pos = pos
        if end_tag:
            return EndTagToken(name=name, attributes=attributes)
        return StartTagToken(name=name, attributes=attributes, self_closing=self_closing)

    def _consume_attributes(self, pos: int) -> tuple[dict[str, str], int, bool]:
        text = self._text
        attributes: dict[str, str] = {}
        self_closing = False
        while pos < self._length:
            while pos < self._length and text[pos].isspace():
                pos += 1
            if pos >= self._length:
                break
            ch = text[pos]
            if ch == ">":
                pos += 1
                return attributes, pos, self_closing
            if ch == "/":
                pos += 1
                if pos < self._length and text[pos] == ">":
                    return attributes, pos + 1, True
                continue
            name_start = pos
            while pos < self._length and text[pos] not in "=/> \t\r\n":
                pos += 1
            attr_name = text[name_start:pos].lower()
            while pos < self._length and text[pos].isspace():
                pos += 1
            value = ""
            if pos < self._length and text[pos] == "=":
                pos += 1
                while pos < self._length and text[pos].isspace():
                    pos += 1
                if pos < self._length and text[pos] in "\"'":
                    quote = text[pos]
                    pos += 1
                    # find() scans the quoted value at C speed; attribute
                    # values (nonces, ids, rings) are the long spans here.
                    close = text.find(quote, pos)
                    if close == -1:
                        value = text[pos:]
                        pos = self._length
                    else:
                        value = text[pos:close]
                        pos = close + 1
                else:
                    value_start = pos
                    while pos < self._length and text[pos] not in "> \t\r\n":
                        pos += 1
                    value = text[value_start:pos]
            if attr_name:
                attributes[attr_name] = decode_entities(value)
        return attributes, pos, self_closing

    # -- raw text ----------------------------------------------------------------------

    def _consume_raw_text(self, tag_name: str) -> RawTextToken | None:
        """Swallow content up to (not including) ``</tag_name``."""
        lowered = self._lowered
        if lowered is None:
            lowered = self._lowered = self._text.lower()
        marker = f"</{tag_name}"
        end = lowered.find(marker, self._pos)
        if end == -1:
            data = self._text[self._pos :]
            self._pos = self._length
        else:
            data = self._text[self._pos : end]
            self._pos = end
        if data == "":
            return None
        return RawTextToken(data)
