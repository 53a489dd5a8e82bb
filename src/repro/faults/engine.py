"""The rule engine the four fault planes share.

Storage faults (:mod:`repro.faults.plan`), hostile behaviour
(:mod:`repro.faults.behavior`), component crashes
(:mod:`repro.faults.crash`) and silent corruption
(:mod:`repro.faults.corrupt`) all follow one recipe, declared here
once:

* **Window.** Every rule has a ``rate`` in [0, 1] and a half-open
  ``[start_ns, end_ns)`` window (``end_ns=None``: forever), validated
  at construction and tested by :meth:`WindowedRule.in_window`.
* **Keyed draw.** Every probabilistic decision is :func:`_draw`, a
  pure function of ``(seed, *key)`` through keyed BLAKE2b — no RNG
  state, so a storm reproduces byte-for-byte given the same seed, and
  extra evaluations cannot perturb anything.
* **First-wins with full audit.** :meth:`FirstWinsPlan._first_firing`
  lets the first firing rule decide but, when the caller audits, keeps
  evaluating and records *every* firing rule in ``observed``.
* **Accounting.** :class:`Injector` binds a plan to a metrics counter
  family and keeps ``injected`` plus the per-rule
  :class:`FireRecorder` the mission audit reads.

A new plane supplies a frozen rule dataclass mixing in
:class:`WindowedRule` (its ``KINDS``, scope fields and ``applies``), a
plan whose ``_fires(index, rule, *context)`` judges one rule, a
decision type, and an :class:`Injector` subclass naming its ``METRIC``.
The storage plane keeps its own precedence loop (``bad_block`` >
``stuck`` > ``transient``, latency additive) on the same window and
draw.
"""

import hashlib

from repro.obs.metrics import NULL_REGISTRY


def _draw(seed, *key):
    """A deterministic uniform draw in [0, 1) keyed by ``(seed, *key)``.

    Hash-based (BLAKE2b), so it is stable across processes and Python
    versions — unlike ``hash()`` — and independent of call order.
    """
    data = ("%d|" % seed + "|".join(str(part) for part in key)).encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FireRecorder:
    """Set-like audit evidence with per-rule fire *counts*.

    The plans record which rule indices fired through
    ``observed.add(index)``; this recorder keeps both the set of
    indices that ever fired and how many times each did, so mission
    reports can show per-rule counts rather than a boolean. It
    iterates and compares like the plain ``set`` the plans were
    written against, so plans and tests need not care which they get.
    """

    def __init__(self):
        self.counts = {}

    def add(self, index):
        """Record one firing of rule ``index``."""
        self.counts[index] = self.counts.get(index, 0) + 1

    def __contains__(self, index):
        return index in self.counts

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        if isinstance(other, FireRecorder):
            return self.counts == other.counts
        return set(self.counts) == other

    def __repr__(self):
        return "<FireRecorder %r>" % (self.counts,)


class WindowedRule:
    """Validation and time window shared by every rule dataclass.

    Mixed into frozen dataclasses that declare ``rate``, ``start_ns``
    and ``end_ns``; a plane with kinds also declares ``kind`` and lists
    the legal ones in the class attribute ``KINDS``. A subclass with
    fields of its own extends ``__post_init__`` and calls this one
    first.
    """

    KINDS = None

    def __post_init__(self):
        if self.KINDS is not None and self.kind not in self.KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % (self.KINDS, self.kind))
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1], got %r" % self.rate)
        if self.start_ns < 0:
            raise ValueError("negative start_ns")
        if self.end_ns is not None and self.end_ns <= self.start_ns:
            raise ValueError("end_ns must exceed start_ns")

    def in_window(self, now):
        """Whether simulated time ``now`` is inside the rule's window."""
        return self.start_ns <= now and (self.end_ns is None
                                         or now < self.end_ns)


class FirstWinsPlan:
    """The first-firing loop of the behaviour, crash and corrupt plans.

    Mixed into frozen plan dataclasses with ``seed`` and ``rules``; the
    subclass's ``_fires(index, rule, *context)`` says whether one rule
    fires for this consultation (scope, window and draw).
    """

    def _first_firing(self, observed, *context):
        """Index of the first rule that fires, or None.

        With ``observed`` given, the later rules are still evaluated
        and every firing index is recorded: draws are pure, so the
        extra evaluation cannot change the winner, and the mission
        plane's injection audit can prove each declared rule was
        exercised (not vacuous).
        """
        winner = None
        for index, rule in enumerate(self.rules):
            if not self._fires(index, rule, *context):
                continue
            if observed is None:
                return index
            observed.add(index)
            if winner is None:
                winner = index
        return winner


class Injector:
    """A plan bound to a metrics registry: the accounting of everything
    one plane injected.

    Subclasses set ``METRIC`` to the ``(name, help)`` of their counter
    family and call :meth:`_account` once per injected decision.
    """

    METRIC = None

    def __init__(self, plan, metrics=None):
        self.plan = plan
        metrics = metrics if metrics is not None else NULL_REGISTRY
        name, help_text = self.METRIC
        self._family = metrics.counter(name, help=help_text)
        self.injected = 0
        #: Fire evidence per plan rule (set-like, with counts) — the
        #: mission plane's injection-audit evidence.
        self.observed = FireRecorder()

    def _account(self, **labels):
        """Count one injected decision under ``labels``."""
        self.injected += 1
        self._family.child(**labels).inc()
