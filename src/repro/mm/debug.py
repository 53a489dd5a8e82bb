"""Cross-structure consistency checking.

The memory system's state lives in four places that must agree: the
physical-memory free map, the RamTab, the page table(s), and the
per-client frame stacks. :func:`check_consistency` audits all the
invariants that tie them together and raises
:class:`ConsistencyError` with a full report if any is violated.

Intended uses: assertions at the end of integration and property-based
tests, and interactive debugging of new stretch drivers ("run my
workload, then audit the machine").
"""


class ConsistencyError(AssertionError):
    """One or more memory-system invariants are violated."""


def check_consistency(system):
    """Audit the memory system; raises :class:`ConsistencyError`.

    Invariants checked:

    1. A frame is free in physical memory iff it has no RamTab owner.
    2. Every owned frame is on exactly one client's frame stack, and
       every stack entry is owned by that client's domain.
    3. A RamTab entry marked MAPPED/NAILED points at a page that maps
       that frame — through its PTE, or through the seg regime's
       base+limit extent covering it — and vice versa: every frame a
       PTE or an extent maps is marked.
    4. No physical frame is mapped by two virtual pages (PTE- and
       extent-mapped pages alike).
    5. Client accounting: ``allocated`` equals the stack size and the
       RamTab ownership count; the sum of guarantees of live clients
       respects admission control.
    """
    problems = []
    physmem = system.physmem
    ramtab = system.ramtab
    pagetable = system.pagetable
    allocator = system.frames_allocator

    # --- 1: free map vs RamTab ownership ------------------------------
    for pfn in range(physmem.total_frames):
        free = physmem.is_free(pfn)
        owner = ramtab.owner(pfn)
        if free and owner is not None:
            problems.append("PFN %d is free but owned by %s"
                            % (pfn, owner))
        if not free and owner is None:
            problems.append("PFN %d is allocated but has no owner" % pfn)

    # --- 2 & 5: stacks and accounting ----------------------------------
    stack_membership = {}
    for client in allocator.clients:
        if client.killed or client.domain is None:
            continue
        stack_pfns = client.stack.pfns_top_down()
        if len(stack_pfns) != client.allocated:
            problems.append(
                "%s: allocated=%d but stack holds %d"
                % (client.domain.name, client.allocated, len(stack_pfns)))
        for pfn in stack_pfns:
            if pfn in stack_membership:
                problems.append("PFN %d is on two stacks (%s and %s)"
                                % (pfn, stack_membership[pfn],
                                   client.domain.name))
            stack_membership[pfn] = client.domain.name
            if ramtab.owner(pfn) is not client.domain:
                problems.append(
                    "PFN %d on %s's stack but owned by %s"
                    % (pfn, client.domain.name, ramtab.owner(pfn)))
        owned = ramtab.owned_by(client.domain)
        if len(owned) != client.allocated:
            problems.append(
                "%s: allocated=%d but RamTab says %d"
                % (client.domain.name, client.allocated, len(owned)))

    capacity = physmem.region("main").frames - allocator.system_reserve
    if allocator.total_guaranteed() > capacity:
        problems.append("sum of guarantees %d exceeds capacity %d"
                        % (allocator.total_guaranteed(), capacity))

    # --- 3 & 4: RamTab vs page table -----------------------------------
    from repro.mm.ramtab import FrameState

    seg = system.translation.seg
    extents = list(seg.extents.values()) if seg is not None else []

    def extent_pfn(vpn):
        # SegTranslation.resolve counts hits; the audit must not.
        for extent in extents:
            if extent.covers(vpn):
                return extent.pfn_of(vpn)
        return None

    frames_seen_mapped = {}
    for pfn in range(physmem.total_frames):
        state = ramtab.state(pfn)
        vpn = ramtab.mapped_vpn(pfn)
        if state in (FrameState.MAPPED, FrameState.NAILED):
            pte = pagetable.peek(vpn) if vpn is not None else None
            if (pte is None or pte.pfn != pfn) and (
                    vpn is None or extent_pfn(vpn) != pfn):
                problems.append(
                    "PFN %d marked %s at VPN %s but the PTE disagrees"
                    % (pfn, state.value, vpn))
        elif vpn is not None:
            problems.append("PFN %d unused but records VPN %#x"
                            % (pfn, vpn))

    # Walk every stretch's pages for the reverse direction.
    for stretch in system.stretch_allocator._stretches.values():
        for vpn in range(stretch.base_vpn,
                         stretch.base_vpn + stretch.npages):
            pte = pagetable.peek(vpn)
            mappings = []
            if pte is not None and pte.mapped:
                mappings.append((pte.pfn, pte.nailed))
            seg_pfn = extent_pfn(vpn)
            if seg_pfn is not None:
                mappings.append((seg_pfn, False))   # extents never nail
            for pfn, nailed in mappings:
                if pfn in frames_seen_mapped:
                    problems.append(
                        "PFN %d mapped twice: VPN %#x and VPN %#x"
                        % (pfn, frames_seen_mapped[pfn], vpn))
                frames_seen_mapped[pfn] = vpn
                state = ramtab.state(pfn)
                if state is FrameState.UNUSED:
                    problems.append(
                        "VPN %#x maps PFN %d which the RamTab calls unused"
                        % (vpn, pfn))
                if nailed != (state is FrameState.NAILED):
                    problems.append(
                        "VPN %#x nailed bit disagrees with RamTab for PFN %d"
                        % (vpn, pfn))

    if problems:
        raise ConsistencyError(
            "memory system inconsistent (%d problems):\n  %s"
            % (len(problems), "\n  ".join(problems[:40])))
    return True
