"""Test oracle: the original recursive, parse-every-tag labelling pass.

:class:`RecursiveLabeler` walks the tree recursively and parses every AC
tag's attributes afresh, with no memo.  The production
:class:`~repro.browser.labeler.PageLabeler` walks iteratively and parses each
distinct ``(label key, bound)`` pair once per pass; the equivalence tests
check that both assign equal contexts and equal statistics.
"""

from __future__ import annotations

from repro.browser.labeler import LabelingStats, PageLabeler
from repro.core.acl import Acl
from repro.core.config import extract_ac_label
from repro.core.context import SecurityContext
from repro.core.rings import Ring, as_ring
from repro.core.scoping import effective_ring, is_violation
from repro.dom.document import Document
from repro.dom.element import Element


class RecursiveLabeler(PageLabeler):
    """Same defaults as :class:`PageLabeler`; the labelling walk is the oracle's."""

    def label_document(self, document: Document) -> LabelingStats:
        default = self.page_default_context()
        for child in document.children:
            if isinstance(child, Element):
                self._label(child, default, as_ring(0))
        return self.stats

    def _label(self, element: Element, scope: SecurityContext, bound: Ring) -> None:
        context = scope
        child_bound = bound
        if self.escudo_enabled and element.is_ac_tag:
            context = self._fresh_scope(element, bound)
            child_bound = context.ring
            self.stats.ac_tags += 1
        if element.security_context is None:
            element.assign_security_context(context)
        self.stats.labelled_elements += 1
        histogram = self.stats.ring_histogram
        histogram[context.ring.level] = histogram.get(context.ring.level, 0) + 1
        for child in element.element_children():
            self._label(child, context, child_bound)

    def _fresh_scope(self, element: Element, bound: Ring) -> SecurityContext:
        label = extract_ac_label(element.attributes, self.rings)
        if is_violation(label.declared_ring, bound):
            self.stats.scoping_clamps += 1
        if self.enforce_scoping:
            ring = effective_ring(label.declared_ring, bound)
        else:
            ring = label.declared_ring if label.declared_ring is not None else bound
        acl = label.acl if label.acl is not None else Acl.default()
        return SecurityContext(
            origin=self.origin,
            ring=ring,
            acl=acl,
            label=f"ac-scope ring {ring.level}",
        )
