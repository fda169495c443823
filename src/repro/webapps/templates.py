"""Template engine with ESCUDO configuration support.

The paper recommends specifying the ESCUDO configuration in the HTML
templates (where phpBB uses its template engine and PHP-Calendar its HTML
type system), so that ring assignments live with the layout and dynamic data
is plugged into already-labelled scopes.  This module provides:

* :func:`render_template` -- ``{{ name }}`` substitution with HTML escaping
  by default (``{{ name|safe }}`` opts out), which doubles as the framework's
  input-sanitisation point;
* :class:`AcScope` / :func:`ac_scope` -- emit an access-control ``div`` with
  ring, ACL and a fresh markup-randomisation nonce (repeated on the matching
  terminator);
* :class:`EscudoPageTemplate` -- a structured page builder the case-study
  applications use: a ring-labelled head section, a ring-labelled body
  chrome section, and any number of content scopes (one per user message /
  calendar event), each independently labelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.acl import Acl
from repro.core.nonce import NonceGenerator
from repro.core.rings import Ring, as_ring
from repro.html.entities import escape_attribute, escape_text


def render_template(template: str, context: dict[str, object] | None = None) -> str:
    """Substitute ``{{ name }}`` placeholders from ``context``.

    Values are HTML-escaped unless the placeholder uses the ``|safe`` filter
    (``{{ body|safe }}``), which is how templates deliberately include
    markup they trust -- or, in the attack experiments, how unsanitised user
    input reaches the page.
    Unknown placeholders render as empty strings (fail-safe for templates).
    """
    if context is None:
        context = {}
    out: list[str] = []
    pos = 0
    while True:
        start = template.find("{{", pos)
        if start == -1:
            out.append(template[pos:])
            break
        out.append(template[pos:start])
        end = template.find("}}", start + 2)
        if end == -1:
            out.append(template[start:])
            break
        expression = template[start + 2 : end].strip()
        safe = False
        if expression.endswith("|safe"):
            safe = True
            expression = expression[: -len("|safe")].strip()
        value = context.get(expression, "")
        text = str(value)
        out.append(text if safe else escape_text(text))
        pos = end + 2
    return "".join(out)


@dataclass
class AcScope:
    """One access-control scope: ring, ACL and nonce."""

    ring: Ring
    acl: Acl
    nonce: str | None = None

    def open_tag(self, extra_attributes: dict[str, str] | None = None) -> str:
        """The opening ``<div ...>`` markup."""
        attrs = self.acl.as_attributes()
        parts = [f'ring="{self.ring.level}"'] + [f'{k}="{v}"' for k, v in attrs.items()]
        if self.nonce is not None:
            parts.append(f'nonce="{escape_attribute(self.nonce)}"')
        for name, value in (extra_attributes or {}).items():
            parts.append(f'{name}="{escape_attribute(value)}"')
        return f"<div {' '.join(parts)}>"

    def close_tag(self) -> str:
        """The matching terminator, repeating the nonce."""
        if self.nonce is not None:
            return f'</div nonce="{escape_attribute(self.nonce)}">'
        return "</div>"

    def wrap(self, content: str, extra_attributes: dict[str, str] | None = None) -> str:
        """Wrap ``content`` (already-rendered markup) in this scope."""
        return f"{self.open_tag(extra_attributes)}{content}{self.close_tag()}"


def ac_scope(
    ring: Ring | int,
    *,
    read: Ring | int | None = None,
    write: Ring | int | None = None,
    use: Ring | int | None = None,
    nonces: NonceGenerator | None = None,
) -> AcScope:
    """Build an :class:`AcScope` with a fresh nonce from ``nonces``.

    Omitted ACL entries default to the scope's own ring, which is the
    convention the case-study tables use ("accessible from rings 0..n").
    """
    ring_value = as_ring(ring)

    def limit(value: Ring | int | None) -> Ring:
        return ring_value if value is None else as_ring(value)

    acl = Acl(read=limit(read), write=limit(write), use=limit(use))
    nonce = nonces.next_nonce() if nonces is not None else None
    return AcScope(ring=ring_value, acl=acl, nonce=nonce)


@dataclass
class ContentScope:
    """A labelled region of the page body (one message, one event, an ad slot)."""

    markup: str
    scope: AcScope | None = None
    element_id: str | None = None

    def render(self) -> str:
        extra = {"id": self.element_id} if self.element_id else None
        if self.scope is None:
            if self.element_id:
                return f'<div id="{escape_attribute(self.element_id)}">{self.markup}</div>'
            return self.markup
        return self.scope.wrap(self.markup, extra)


@dataclass
class EscudoPageTemplate:
    """Structured page builder used by the case-study applications.

    ``escudo_enabled=False`` renders the identical page with every ESCUDO
    attribute omitted -- the legacy variant used by the compatibility and
    baseline experiments.
    """

    title: str
    escudo_enabled: bool = True
    nonces: NonceGenerator = field(default_factory=NonceGenerator)
    head_ring: Ring = field(default_factory=lambda: as_ring(0))
    chrome_ring: Ring = field(default_factory=lambda: as_ring(1))
    head_extra: list[str] = field(default_factory=list)
    chrome_sections: list[ContentScope] = field(default_factory=list)
    content_sections: list[ContentScope] = field(default_factory=list)

    # -- construction helpers ---------------------------------------------------------

    def add_head_script(self, source: str) -> None:
        """Add a trusted script to the (ring-``head_ring``) head."""
        self.head_extra.append(f"<script>{source}</script>")

    def add_head_style(self, css: str) -> None:
        """Add a style block to the head."""
        self.head_extra.append(f"<style>{css}</style>")

    def add_chrome(self, markup: str, *, element_id: str | None = None,
                   read: int | None = None, write: int | None = None, use: int | None = None) -> None:
        """Add application chrome (navigation, forms, trusted scripts) to the body."""
        scope = None
        if self.escudo_enabled:
            scope = ac_scope(self.chrome_ring, read=read, write=write, use=use, nonces=self.nonces)
        self.chrome_sections.append(ContentScope(markup=markup, scope=scope, element_id=element_id))

    def add_content(self, markup: str, *, ring: int, element_id: str | None = None,
                    read: int | None = None, write: int | None = None, use: int | None = None) -> None:
        """Add a user-content region in its own ring (one message / event)."""
        scope = None
        if self.escudo_enabled:
            scope = ac_scope(ring, read=read, write=write, use=use, nonces=self.nonces)
        self.content_sections.append(ContentScope(markup=markup, scope=scope, element_id=element_id))

    # -- rendering ---------------------------------------------------------------------------

    def render(self) -> str:
        """Produce the full HTML document."""
        head_inner = f"<title>{escape_text(self.title)}</title>" + "".join(self.head_extra)
        if self.escudo_enabled:
            head_scope = ac_scope(self.head_ring, nonces=self.nonces)
            head_markup = f"<head>{head_scope.wrap(head_inner)}</head>"
        else:
            head_markup = f"<head>{head_inner}</head>"

        body_inner = "".join(section.render() for section in self.chrome_sections)
        body_inner += "".join(section.render() for section in self.content_sections)
        if self.escudo_enabled:
            body_scope = ac_scope(self.chrome_ring, nonces=self.nonces)
            body_markup = f"<body>{body_scope.wrap(body_inner)}</body>"
        else:
            body_markup = f"<body>{body_inner}</body>"
        return f"<!DOCTYPE html><html>{head_markup}{body_markup}</html>"
