"""The consistency auditor, and property-based whole-system fuzzing.

`repro.mm.debug.check_consistency` cross-checks physical memory, the
RamTab, the page table and the frame stacks. Here it (a) passes after
every kind of workload we can throw at the system, and (b) actually
detects each class of corruption when injected.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, Touch
from repro.mm.debug import ConsistencyError, check_consistency
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC

MB = 1024 * 1024
QOS = QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS)


def _seg_app(system, pages):
    app = system.new_app("seg", guaranteed_frames=pages + 2)
    stretch = app.new_stretch(pages * system.machine.page_size)
    driver = app.seg_driver()
    app.bind(stretch, driver)
    return app, stretch, driver


def _touch_all(stretch):
    for va in stretch.pages():
        yield Touch(va, AccessKind.WRITE)


def _run(system, app, body):
    thread = app.spawn(body)
    system.sim.run_until_triggered(thread.done, limit=10 * SEC)


class TestAuditPasses:
    def test_fresh_system(self, system):
        assert check_consistency(system)

    def test_after_physical_workload(self, system):
        app = system.new_app("p", guaranteed_frames=8)
        stretch = app.new_stretch(8 * system.machine.page_size)
        app.bind(stretch, app.physical_driver(frames=4))

        def body():
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        assert check_consistency(system)

    def test_after_heavy_paging(self, system):
        app = system.new_app("pg", guaranteed_frames=4)
        stretch = app.new_stretch(64 * system.machine.page_size)
        app.bind(stretch, app.paged_driver(frames=2, swap_bytes=2 * MB,
                                           qos=QOS))

        def body():
            for _ in range(2):
                for va in stretch.pages():
                    yield Touch(va, AccessKind.WRITE)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=300 * SEC)
        assert check_consistency(system)

    def test_after_revocation_and_kill(self, small_system):
        system = small_system
        total = system.physmem.region("main").frames
        hog = system.new_app("hog", guaranteed_frames=2, extra_frames=total)
        hog.frames.alloc_now(system.physmem.free_in_region("main"))
        needy = system.new_app("needy", guaranteed_frames=16)
        needy.frames.alloc_now(16)   # transparent revocation
        system.frames_allocator._kill(hog.frames)
        system.run_for(100 * MS)
        assert check_consistency(system)

    def test_after_seg_workload(self, system):
        """Seg-regime frames map through a base+limit extent, not a
        PTE; the auditor accepts a frame its extent maps."""
        app, stretch, driver = _seg_app(system, pages=32)
        _run(system, app, _touch_all(stretch))
        extent = driver.seg.extent_of(stretch.sid)
        assert extent is not None and extent.limit == 32
        hits = driver.seg.hits
        assert check_consistency(system)
        assert driver.seg.hits == hits   # the audit does not translate

    def test_after_shutdown(self, system):
        app = system.new_app("bye", guaranteed_frames=8)
        stretch = app.new_stretch(8 * system.machine.page_size)
        app.bind(stretch, app.paged_driver(frames=4, swap_bytes=1 * MB,
                                           qos=QOS))

        def body():
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=60 * SEC)
        app.shutdown()
        assert check_consistency(system)


class TestAuditDetectsCorruption:
    def test_detects_orphaned_frame(self, system):
        app = system.new_app("c", guaranteed_frames=2)
        pfn = app.frames.alloc_now(1)[0]
        system.physmem.release(pfn)  # free it behind the RamTab's back
        with pytest.raises(ConsistencyError, match="free but owned"):
            check_consistency(system)

    def test_detects_stack_desync(self, system):
        app = system.new_app("c", guaranteed_frames=2)
        app.frames.alloc_now(2)
        app.frames.stack.remove(app.frames.stack.top(1)[0])
        with pytest.raises(ConsistencyError):
            check_consistency(system)

    def test_detects_double_mapping(self, system):
        app = system.new_app("c", guaranteed_frames=2)
        page = system.machine.page_size
        stretch = app.new_stretch(2 * page)
        pfn = app.frames.alloc_now(1)[0]
        system.translation.map(app.domain, stretch.base, pfn)
        # Corrupt: poke a second PTE at the same frame directly.
        second = system.pagetable.peek(stretch.base_vpn + 1)
        second.map(pfn)
        with pytest.raises(ConsistencyError, match="mapped twice"):
            check_consistency(system)

    def test_detects_ramtab_pte_disagreement(self, system):
        app = system.new_app("c", guaranteed_frames=2)
        stretch = app.new_stretch(system.machine.page_size)
        pfn = app.frames.alloc_now(1)[0]
        system.translation.map(app.domain, stretch.base, pfn)
        system.pagetable.peek(stretch.base_vpn).make_null()  # corrupt
        with pytest.raises(ConsistencyError):
            check_consistency(system)


    def test_detects_seg_ramtab_vpn_disagreement(self, system):
        app, stretch, driver = _seg_app(system, pages=32)
        _run(system, app, _touch_all(stretch))
        extent = driver.seg.extent_of(stretch.sid)
        pfn = extent.pfn_of(stretch.base_vpn + 3)
        # Corrupt: the RamTab records the wrong page for a seg frame.
        system.ramtab.set_mapped(pfn, stretch.base_vpn + 4)
        with pytest.raises(ConsistencyError, match="PFN %d marked" % pfn):
            check_consistency(system)

    def test_detects_seg_frame_also_mapped_by_pte(self, system):
        app, stretch, driver = _seg_app(system, pages=8)
        _run(system, app, _touch_all(stretch))
        pfn = driver.seg.extent_of(stretch.sid).base_pfn
        other = app.new_stretch(system.machine.page_size)
        # Corrupt: a PTE elsewhere maps a frame the extent already maps.
        system.pagetable.peek(other.base_vpn).map(pfn)
        with pytest.raises(ConsistencyError, match="mapped twice"):
            check_consistency(system)


class TestPropertyFuzz:
    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans()),
                    min_size=1, max_size=40))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_touch_sequences_stay_consistent(self, accesses):
        """Arbitrary page-touch sequences through a paged driver leave
        the whole memory system consistent."""
        from repro.system import NemesisSystem

        system = NemesisSystem(usd_trace=False)
        app = system.new_app("fuzz", guaranteed_frames=6)
        stretch = app.new_stretch(16 * system.machine.page_size)
        app.bind(stretch, app.paged_driver(frames=4, swap_bytes=1 * MB,
                                           qos=QOS))

        def body():
            for index, is_write in accesses:
                kind = AccessKind.WRITE if is_write else AccessKind.READ
                yield Touch(stretch.va_of_page(index), kind)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=120 * SEC)
        assert check_consistency(system)
