"""HTML tokenizer.

Turns markup text into a stream of tokens: start tags (with attributes and a
self-closing flag), end tags (which, unusually, may carry attributes --
ESCUDO's markup randomisation puts a ``nonce`` attribute on closing ``div``
tags), text runs, comments and doctypes.

The tokenizer is lenient in the way browsers are: malformed constructs
degrade to text rather than raising, and attribute values may be unquoted,
single-quoted or double-quoted.  Raw-text elements (``script``, ``style``,
``title``, ``textarea``) switch the tokenizer into a mode that swallows
everything up to the matching end tag, so markup-looking characters inside
scripts do not confuse the tree builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.dom.element import RAW_TEXT_ELEMENTS

from .entities import decode_entities


@dataclass(slots=True)
class Token:
    """Base class for every token."""


@dataclass(slots=True)
class StartTagToken(Token):
    """``<name attr=value ...>`` or ``<name ... />``."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass(slots=True)
class EndTagToken(Token):
    """``</name>`` -- possibly with attributes (``</div nonce=...>``)."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class TextToken(Token):
    """A run of character data (entities already decoded)."""

    data: str


@dataclass(slots=True)
class RawTextToken(Token):
    """Content of a raw-text element (``script`` bodies are not entity-decoded)."""

    data: str


@dataclass(slots=True)
class CommentToken(Token):
    """``<!-- ... -->``."""

    data: str


@dataclass(slots=True)
class DoctypeToken(Token):
    """``<!DOCTYPE ...>``."""

    data: str


def tokenize(markup: str) -> Iterator[Token]:
    """Yield tokens for ``markup``.

    One generator frame scans the whole string: the cursor, the text and its
    bound ``find``/``startswith`` are locals, and each construct (comment,
    doctype, tag with its attributes, raw-text body) is scanned inline.  A
    scanner with one method per construct spent about a third of its time
    in the calls and in ``self._pos`` reads and writes.
    """
    text = markup
    length = len(text)
    find = text.find
    startswith = text.startswith
    raw_text_elements = RAW_TEXT_ELEMENTS
    # Lazily lowered copy for raw-text end-tag searches: lowering the whole
    # document once beats re-lowering it per <script>/<title>.
    lowered: str | None = None
    pos = 0
    while pos < length:
        lt = find("<", pos)
        if lt == -1:
            yield TextToken(decode_entities(text[pos:]))
            return
        if lt > pos:
            yield TextToken(decode_entities(text[pos:lt]))
            pos = lt
        # -- comment and doctype ------------------------------------------------
        if startswith("<!--", pos):
            end = find("-->", pos + 4)
            if end == -1:
                yield CommentToken(text[pos + 4 :])
                return
            yield CommentToken(text[pos + 4 : end])
            pos = end + 3
            continue
        if startswith("<!", pos):
            end = find(">", pos + 2)
            if end == -1:
                yield DoctypeToken(text[pos + 2 :].strip())
                return
            yield DoctypeToken(text[pos + 2 : end].strip())
            pos = end + 1
            continue
        # -- tag name ---------------------------------------------------------------
        if startswith("</", pos):
            end_tag = True
            cursor = name_start = pos + 2
        elif pos + 1 < length and text[pos + 1].isalpha():
            end_tag = False
            cursor = name_start = pos + 1
        else:
            # Lone '<' that does not open anything: emit as text.
            yield TextToken("<")
            pos += 1
            continue
        while cursor < length and ((ch := text[cursor]).isalnum() or ch in "-_:"):
            cursor += 1
        name = text[name_start:cursor].lower()
        if not name:
            # ``</`` followed by no name: the '<' is text too.
            yield TextToken("<")
            pos += 1
            continue
        # -- attributes ---------------------------------------------------------------
        attributes: dict[str, str] = {}
        self_closing = False
        while cursor < length:
            while cursor < length and (ch := text[cursor]).isspace():
                cursor += 1
            if cursor >= length:
                break
            if ch == ">":
                cursor += 1
                break
            if ch == "/":
                cursor += 1
                if cursor < length and text[cursor] == ">":
                    cursor += 1
                    self_closing = True
                    break
                continue
            attr_start = cursor
            while cursor < length and text[cursor] not in "=/> \t\r\n":
                cursor += 1
            attr_name = text[attr_start:cursor].lower()
            while cursor < length and text[cursor].isspace():
                cursor += 1
            value = ""
            if cursor < length and text[cursor] == "=":
                cursor += 1
                while cursor < length and text[cursor].isspace():
                    cursor += 1
                if cursor < length and text[cursor] in "\"'":
                    quote = text[cursor]
                    cursor += 1
                    # find() scans the quoted value at C speed; attribute
                    # values (nonces, ids, rings) are the long spans here.
                    close = find(quote, cursor)
                    if close == -1:
                        value = text[cursor:]
                        cursor = length
                    else:
                        value = text[cursor:close]
                        cursor = close + 1
                else:
                    value_start = cursor
                    while cursor < length and text[cursor] not in "> \t\r\n":
                        cursor += 1
                    value = text[value_start:cursor]
            if attr_name:
                attributes[attr_name] = decode_entities(value)
        pos = cursor
        if end_tag:
            yield EndTagToken(name, attributes)
            continue
        yield StartTagToken(name, attributes, self_closing)
        # -- raw text: swallow content up to (not including) ``</name`` ----------
        if not self_closing and name in raw_text_elements:
            if lowered is None:
                lowered = text.lower()
            end = lowered.find("</" + name, pos)
            if end == -1:
                data = text[pos:]
                pos = length
            else:
                data = text[pos:end]
                pos = end
            if data:
                yield RawTextToken(data)
