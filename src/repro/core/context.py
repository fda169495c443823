"""Security contexts.

The ESCUDO implementation in the paper maintains a *security context* for
every principal and object: the origin it belongs to, its ring assignment,
and (for objects) its ACL.  The context is derived from the application's
configuration exactly once -- during parsing -- and is never exposed to
scripts afterwards.

This module defines :class:`SecurityContext`, the immutable value the
reference monitor consumes, and :class:`ContextTracker`, the bookkeeping
structure the browser uses to associate contexts with live entities without
storing them anywhere a script could reach (mirroring the paper's "tracking
the security contexts" implementation component).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Iterator, MutableMapping

from .acl import Acl
from .errors import TamperingError
from .origin import Origin
from .rings import Ring, RingSet, as_ring


@dataclass(frozen=True)
class SecurityContext:
    """Everything the reference monitor needs to know about one entity.

    Attributes
    ----------
    origin:
        The web origin that instantiated the principal or object.
    ring:
        The protection ring the entity was assigned to during configuration.
    acl:
        The per-object ACL.  Principals carry an ACL too (it is simply
        ignored when they act as principals); DOM elements in particular act
        as both principals and objects, so a single context type keeps the
        bookkeeping uniform.
    label:
        Human-readable description used in decisions, logs and reports.
    trusted:
        Marks contexts synthesised by the browser itself (browser chrome,
        internal state).  Trusted contexts bypass the origin rule when the
        *browser* -- not page content -- performs maintenance work.
    """

    origin: Origin
    ring: Ring
    acl: Acl = field(default_factory=Acl.default)
    label: str = "anonymous"
    trusted: bool = False

    # -- derivation -------------------------------------------------------------

    def with_ring(self, ring: Ring | int) -> "SecurityContext":
        """Copy of this context with a different ring."""
        return replace(self, ring=as_ring(ring))

    def with_acl(self, acl: Acl) -> "SecurityContext":
        """Copy of this context with a different ACL."""
        return replace(self, acl=acl)

    def with_label(self, label: str) -> "SecurityContext":
        """Copy of this context with a different display label."""
        return replace(self, label=label)

    def restricted_to(self, outer_ring: Ring | int) -> "SecurityContext":
        """Apply the scoping rule: never exceed the privilege of ``outer_ring``."""
        limit = as_ring(outer_ring)
        return replace(self, ring=self.ring.restricted_to(limit))

    # -- convenience -------------------------------------------------------------

    @classmethod
    def for_page_default(cls, origin: Origin, rings: RingSet, label: str = "unlabelled content") -> "SecurityContext":
        """Fail-safe default context for unlabelled DOM content.

        Per the paper: the ring attribute defaults to the least privileged
        ring and the ACL defaults to ``r=0, w=0, x=0``.
        """
        return cls(origin=origin, ring=rings.least_privileged(), acl=Acl.default(), label=label)

    @classmethod
    def for_infrastructure(cls, origin: Origin, label: str) -> "SecurityContext":
        """Ring-0 context for cookies, native APIs and browser state defaults."""
        return cls(origin=origin, ring=as_ring(0), acl=Acl.uniform(0), label=label)

    def __str__(self) -> str:
        return f"{self.label}@{self.origin} [{self.ring}, acl {self.acl}]"


class ContextTracker:
    """Associates security contexts with live browser entities.

    The tracker is keyed by object identity (``id()`` of the tracked entity
    by default, or any hashable key the caller supplies).  It is deliberately
    *not* reachable from the scripting environment: scripts interact with DOM
    wrappers and built-ins that consult the tracker internally, so the
    configuration can never be modified after the initial assignment --
    attempts to re-assign raise :class:`~repro.core.errors.TamperingError`
    unless the caller explicitly asserts browser authority.
    """

    def __init__(self) -> None:
        self._contexts: MutableMapping[Hashable, SecurityContext] = {}

    def assign(self, key: Hashable, context: SecurityContext, *, browser_authority: bool = False) -> None:
        """Record the context for ``key``.

        Re-assignment is refused (ring mapping happens exactly once) unless
        ``browser_authority`` is set, which only browser-internal code paths
        use (e.g. when a page is reloaded and its entities are rebuilt).
        """
        if key in self._contexts and not browser_authority:
            raise TamperingError(
                f"security context for {self._contexts[key].label!r} is already assigned; "
                "ESCUDO performs ring mapping exactly once"
            )
        self._contexts[key] = context

    def lookup(self, key: Hashable) -> SecurityContext | None:
        """Return the context for ``key``, or ``None`` if untracked."""
        return self._contexts.get(key)

    def require(self, key: Hashable) -> SecurityContext:
        """Return the context for ``key``, raising ``KeyError`` if untracked."""
        return self._contexts[key]

    def forget(self, key: Hashable) -> None:
        """Drop the context for ``key`` (used when entities are destroyed)."""
        self._contexts.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._contexts

    def __len__(self) -> int:
        return len(self._contexts)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._contexts)

    def clear(self) -> None:
        """Forget every tracked context (page teardown)."""
        self._contexts.clear()
