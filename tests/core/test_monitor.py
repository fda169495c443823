"""Tests for the ESCUDO reference monitor."""

from __future__ import annotations

import pytest

from repro.core.context import SecurityContext
from repro.core.decision import Operation, Rule
from repro.core.errors import AccessDenied
from repro.core.monitor import AuditLog, ReferenceMonitor
from repro.core.objects import ObjectKind, ProtectedObject
from repro.core.policy import EscudoPolicy
from repro.core.principal import Principal, PrincipalKind
from repro.core.sop import SameOriginPolicy
from tests.conftest import make_context


class TestAuthorize:
    def test_allows_and_records(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 1), make_context(origin, 3), "read")
        assert decision.allowed
        assert monitor.stats.total == 1
        assert monitor.stats.allowed == 1
        assert len(monitor.audit) == 1

    def test_denies_and_attributes_rule(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 3), make_context(origin, 1), "write")
        assert decision.denied
        assert monitor.stats.denied == 1
        assert monitor.stats.denied_by_rule["ring-rule"] == 1

    def test_accepts_principal_and_protected_object_wrappers(self, origin):
        monitor = ReferenceMonitor()
        principal = Principal(kind=PrincipalKind.SCRIPT, context=make_context(origin, 1))
        target = ProtectedObject(kind=ObjectKind.COOKIE, context=make_context(origin, 1))
        decision = monitor.authorize(principal, target, Operation.READ)
        assert decision.allowed
        assert "script-invoking" in decision.principal_label

    def test_accepts_objects_exposing_security_context_property(self, origin):
        class CookieLike:
            label = "cookie:sid"

            @property
            def security_context(self):
                return make_context(origin, 1, label="cookie:sid")

        monitor = ReferenceMonitor()
        assert monitor.authorize(make_context(origin, 0), CookieLike(), "use").allowed

    def test_rejects_entities_without_context(self):
        monitor = ReferenceMonitor()
        with pytest.raises(TypeError):
            monitor.authorize("not a context", "also not", "read")

    def test_operation_accepts_string_names(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 0), make_context(origin, 0), "x")
        assert decision.operation is Operation.USE

    def test_authorize_all_covers_every_target(self, origin):
        monitor = ReferenceMonitor()
        targets = [make_context(origin, ring) for ring in (1, 2, 3)]
        decisions = monitor.authorize_all(make_context(origin, 2), targets, "read")
        assert [d.allowed for d in decisions] == [False, True, True]


class TestStrictMode:
    def test_strict_mode_raises_on_denial(self, origin):
        monitor = ReferenceMonitor(strict=True)
        with pytest.raises(AccessDenied) as excinfo:
            monitor.authorize(make_context(origin, 3), make_context(origin, 0), "read")
        assert excinfo.value.decision.denied

    def test_strict_mode_still_returns_allowed_decisions(self, origin):
        monitor = ReferenceMonitor(strict=True)
        assert monitor.authorize(make_context(origin, 0), make_context(origin, 3), "read").allowed


class TestTamperDenials:
    def test_deny_tampering_records_tamper_rule(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.deny_tampering(make_context(origin, 3), make_context(origin, 3))
        assert decision.denied
        assert decision.denying_rule is Rule.TAMPER
        assert monitor.stats.denied_by_rule["tamper-protection"] == 1


class TestMonitorBookkeeping:
    def test_reset_clears_stats_and_audit(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "read")
        monitor.reset()
        assert monitor.stats.total == 0
        assert len(monitor.audit) == 0

    def test_model_name_follows_policy(self):
        assert ReferenceMonitor(EscudoPolicy()).model_name == "escudo"
        assert ReferenceMonitor(SameOriginPolicy()).model_name == "same-origin"

    def test_by_operation_counter(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "read")
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "write")
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "write")
        assert monitor.stats.by_operation["write"] == 2


class TestAuditLog:
    def test_capacity_evicts_oldest(self, origin):
        monitor = ReferenceMonitor(audit_capacity=3)
        for ring in (0, 1, 2, 3):
            monitor.authorize(make_context(origin, 0), make_context(origin, ring), "read")
        assert len(monitor.audit) == 3

    def test_eviction_is_counted(self, origin):
        log = AuditLog(capacity=3)
        monitor = ReferenceMonitor()
        decisions = [
            monitor.authorize(make_context(origin, 0), make_context(origin, ring), "read")
            for ring in (0, 1, 2, 3, 0)
        ]
        for decision in decisions:
            log.append(decision)
        assert log.evicted == 2
        assert log.entries == tuple(decisions[2:])

    def test_eviction_count_resets_with_the_log(self, origin):
        monitor = ReferenceMonitor(audit_capacity=2)
        for ring in (0, 1, 2):
            monitor.authorize(make_context(origin, 0), make_context(origin, ring), "read")
        assert monitor.audit.evicted == 1
        monitor.reset()
        assert monitor.audit.evicted == 0 and len(monitor.audit) == 0
        for ring in (0, 1):
            monitor.authorize(make_context(origin, 0), make_context(origin, ring), "read")
        assert monitor.audit.evicted == 0
        monitor.audit.append(monitor.audit.entries[0])
        assert monitor.audit.evicted == 1
        monitor.audit.clear()
        assert monitor.audit.evicted == 0

    def test_denials_filter(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 3), "read")
        monitor.authorize(make_context(origin, 3), make_context(origin, 0), "read")
        assert len(monitor.audit.denials()) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            AuditLog(0)
