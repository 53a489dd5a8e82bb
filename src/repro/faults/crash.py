"""Deterministic fault injection for *component crashes*.

The storage plane (:mod:`repro.faults.plan`) models a disk that lies;
the behaviour plane (:mod:`repro.faults.behavior`) models a domain
that misbehaves. This module models the remaining failure class: a
component that simply **dies** mid-flight — a domain's paged driver,
the system USD driver domain, the MemoryBalancer observation loop, or
a USBS volume's driver. The paper's accountability argument (§4) only
survives such deaths if the cost of dying — and of coming back — is
confined to the dead component, which is exactly what the supervisor
(:mod:`repro.supervise`) enforces and the ``crash-recovery`` mission
family measures.

Crash rules are component/time-scoped and consulted from the
supervisor's heartbeat loop, so a crash always lands at a
deterministic simulated time. Determinism follows the other fault
planes exactly: every draw is a pure function of
``(seed, rule index, component, now, sequence)`` through keyed
BLAKE2b — no RNG state, so a crash storm reproduces byte-for-byte
given the same seed.

Component identifiers name supervised components, not domains:
``pager:<name>`` (a paging application's driver + main thread),
``balancer`` (the MemoryBalancer loop), ``usd`` (the system USD
driver domain), and ``volume:<index>`` (one USBS volume's driver).
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.engine import FirstWinsPlan, Injector, WindowedRule, _draw

CRASH = "crash"


@dataclass(frozen=True)
class CrashRule(WindowedRule):
    """One crash rule, scoped by component and time window.

    ``component`` of ``None`` matches every supervised component
    (useful for chaos sweeps); ``rate`` is the per-heartbeat
    probability, drawn deterministically per (component, heartbeat
    sequence, now); ``max_crashes`` caps how many kills the rule may
    deliver in total (0 means unlimited) so a storm can be sized to
    exhaust a restart budget without killing forever.
    """

    component: Optional[str] = None    # None: every component
    rate: float = 1.0
    start_ns: int = 0
    end_ns: Optional[int] = None       # None: forever
    max_crashes: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.max_crashes < 0:
            raise ValueError("negative max_crashes")

    def applies(self, component, now):
        """Rule scope check: component and time window."""
        if self.component is not None and component != self.component:
            return False
        return self.in_window(now)


@dataclass(frozen=True)
class CrashDecision:
    """One delivered kill: which rule fired, against which component."""

    rule_index: int
    component: str


@dataclass(frozen=True)
class CrashPlan(FirstWinsPlan):
    """A seed plus an ordered tuple of rules; first firing rule wins.

    ``fired`` maps rule index to kills already delivered by that rule —
    the injector owns it (the plan itself stays immutable/pure) and
    passes it in so ``max_crashes`` caps are enforced across calls.
    """

    seed: int
    rules: Tuple[CrashRule, ...] = ()

    def _fires(self, index, rule, component, now, seq, fired):
        if not rule.applies(component, now):
            return False
        if fired is not None and rule.max_crashes:
            if fired.get(index, 0) >= rule.max_crashes:
                return False
        if rule.rate < 1.0 and _draw(self.seed, CRASH, index,
                                     component, now, seq) >= rule.rate:
            return False
        return True

    def decide(self, component, now, seq=0, observed=None, fired=None):
        """Whether ``component`` dies at this heartbeat (None: lives)."""
        index = self._first_firing(observed, component, now, seq, fired)
        if index is None:
            return None
        if fired is not None:
            fired[index] = fired.get(index, 0) + 1
        return CrashDecision(rule_index=index, component=component)


class CrashInjector(Injector):
    """The plan bound to a metrics registry, with per-component
    heartbeat sequence numbers and per-rule kill caps."""

    METRIC = ("crash_faults_injected_total",
              "component crashes injected, by component")

    def __init__(self, plan, metrics=None):
        super().__init__(plan, metrics)
        #: rule index -> kills delivered (enforces ``max_crashes``).
        self.fired = {}
        self._seq = {}

    def decide(self, component, now):
        """Consulted once per supervisor heartbeat per component."""
        self._seq[component] = self._seq.get(component, 0) + 1
        decision = self.plan.decide(component, now,
                                    seq=self._seq[component],
                                    observed=self.observed,
                                    fired=self.fired)
        if decision is not None:
            self._account(component=component)
        return decision
