"""Tests for rights sets and protection domains."""

import pytest

from repro.hw.cpu import CostMeter
from repro.hw.mmu import AccessKind
from repro.mm.protdom import ProtectionDomain
from repro.mm.rights import Right, Rights


class TestRights:
    def test_parse_and_str(self):
        rights = Rights.parse("rwm")
        assert str(rights) == "rw-m"
        assert Rights.parse("mrw") == rights  # order-insensitive

    def test_parse_ignores_dashes(self):
        assert Rights.parse("r--m") == Rights.parse("rm")

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Rights.parse("rq")

    def test_none_is_empty_and_falsy(self):
        assert not Rights.none()
        assert str(Rights.none()) == "----"

    def test_permits_access_kinds(self):
        rights = Rights.parse("rw")
        assert rights.permits(AccessKind.READ)
        assert rights.permits(AccessKind.WRITE)
        assert not rights.permits(AccessKind.EXECUTE)

    def test_permits_meta_right(self):
        assert Rights.parse("m").permits(Right.META)
        assert Rights.parse("m").meta
        assert not Rights.parse("rwx").meta

    def test_access_kinds_follow_the_rights_held(self):
        # Every subset, built by parsing and by set algebra, permits an
        # access exactly when it holds the matching right.
        matching = {AccessKind.READ: Right.READ,
                    AccessKind.WRITE: Right.WRITE,
                    AccessKind.EXECUTE: Right.EXECUTE}
        for mask in range(16):
            text = "".join(c for i, c in enumerate("rwxm") if mask >> i & 1)
            for rights in (Rights.parse(text),
                           Rights.parse("rwxm") & Rights.parse(text),
                           Rights.parse("rwxm") - Rights.parse(text),
                           Rights() | Rights.parse(text)):
                for kind, right in matching.items():
                    assert rights.permits(kind) == (right in rights)

    def test_permits_rejects_other_types(self):
        with pytest.raises(TypeError):
            Rights.parse("r").permits("read")

    def test_set_algebra(self):
        a = Rights.parse("rw")
        b = Rights.parse("wm")
        assert str(a | b) == "rw-m"
        assert str(a & b) == "-w--"
        assert str(a - b) == "r---"

    def test_contains_and_iter(self):
        rights = Rights.parse("rx")
        assert Right.READ in rights and Right.EXECUTE in rights
        assert list(rights) == [Right.READ, Right.EXECUTE]

    def test_equality_and_hash(self):
        assert Rights.parse("rw") == Rights.parse("wr")
        assert hash(Rights.parse("rw")) == hash(Rights.parse("wr"))
        assert Rights.parse("rw") != Rights.parse("r")

    def test_constructor_type_checks(self):
        with pytest.raises(TypeError):
            Rights("r")


class TestProtectionDomain:
    def test_default_rights_are_none(self):
        pd = ProtectionDomain(CostMeter())
        assert pd.rights_for(7) == Rights.none()

    def test_set_and_get(self):
        pd = ProtectionDomain(CostMeter())
        pd.set_rights(1, Rights.parse("rw"))
        assert pd.rights_for(1) == Rights.parse("rw")

    def test_idempotent_set_short_circuits(self):
        meter = CostMeter()
        pd = ProtectionDomain(meter)
        assert pd.set_rights(1, Rights.parse("rw"))
        writes = meter.counts["protdom_write"]
        assert not pd.set_rights(1, Rights.parse("rw"))
        assert meter.counts["protdom_write"] == writes  # no second write
        assert pd.updates == 1

    def test_clearing_rights_removes_entry(self):
        pd = ProtectionDomain(CostMeter())
        pd.set_rights(1, Rights.parse("rw"))
        pd.set_rights(1, Rights.none())
        assert pd.rights_for(1) == Rights.none()

    def test_hot_update_charged_cheaper(self):
        meter = CostMeter()
        pd = ProtectionDomain(meter)
        pd.set_rights(1, Rights.parse("r"))
        cold = meter.take()
        pd.set_rights(1, Rights.parse("w"), hot=True)
        hot = meter.take()
        assert hot < cold

    def test_drop(self):
        pd = ProtectionDomain(CostMeter())
        pd.set_rights(1, Rights.parse("rwm"))
        pd.drop(1)
        assert pd.rights_for(1) == Rights.none()
