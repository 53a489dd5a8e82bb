"""Deterministic fault injection for *silent data corruption*.

The first three fault planes cover a disk that fails loudly
(:mod:`repro.faults.plan`), a domain that misbehaves
(:mod:`repro.faults.behavior`) and a component that dies
(:mod:`repro.faults.crash`). This module models the failure class that
none of those recovery paths can even see: a read that **succeeds**
with the wrong bytes. The transaction status stays ``ok``, no retry
ladder engages, no watchdog barks — the corrupt blok flows straight
into the owning domain's working set unless something end-to-end
checks it. That something is :mod:`repro.integrity`, and this plane
exists to prove it works.

Corruption kinds:

* ``bit_flip`` — a transient medium/transfer flip: the draw is keyed
  per (LBA, read time), so re-reading the same blok later gets a fresh
  draw. This is the repairable class — a detected flip is usually gone
  on the repair re-read.
* ``torn_write`` — a write that only partially committed: the draw is
  keyed per (LBA, write generation), so the corruption is a permanent
  property of *that written version* and every read of it returns the
  same torn payload. Rewriting the blok bumps the generation and
  re-draws.
* ``misdirected_write`` — the drive put the payload somewhere else, so
  this LBA holds stale/foreign bytes: keyed like ``torn_write`` (a
  property of the written version), distinct only in what the corrupt
  payload models.

Determinism follows the other planes exactly: every draw is a pure
function of ``(seed, kind, rule index, lba, time-or-generation)``
through keyed BLAKE2b, so a corruption storm reproduces byte-for-byte
given the same seed. The injector is consulted by the disk model on
every *successful* read and notified of every successful write (to
advance write generations); it never changes a transaction's status
or timing — corruption is free, silent and invisible to the PR-2
error machinery, which is the entire point.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.engine import FirstWinsPlan, Injector, WindowedRule, _draw

# Corruption kinds.
BIT_FLIP = "bit_flip"
TORN_WRITE = "torn_write"
MISDIRECTED_WRITE = "misdirected_write"

CORRUPT_KINDS = (BIT_FLIP, TORN_WRITE, MISDIRECTED_WRITE)


@dataclass(frozen=True)
class CorruptRule(WindowedRule):
    """One corruption rule, scoped by LBA range and time window.

    ``rate`` is the per-read (``bit_flip``) or per-written-version
    (``torn_write`` / ``misdirected_write``) probability, drawn once
    per transaction keyed off its first LBA — swap transactions are
    blok-aligned, so the first LBA identifies the blok. Explicit
    ``blocks`` corrupt unconditionally whenever a transaction covers
    them (and then the rate/range draw is skipped, mirroring
    ``bad_block``).
    """

    kind: str
    rate: float = 1.0
    lba_start: int = 0
    lba_end: Optional[int] = None      # None: to end of disk
    start_ns: int = 0
    end_ns: Optional[int] = None       # None: forever
    blocks: Tuple[int, ...] = ()       # explicit corrupt LBAs

    KINDS = CORRUPT_KINDS

    def applies(self, req, now):
        """Rule scope check: time window and LBA overlap."""
        if not self.in_window(now):
            return False
        end = self.lba_end
        return req.end > self.lba_start and (end is None or req.lba < end)


@dataclass(frozen=True)
class CorruptDecision:
    """One silent corruption: which rule fired, what kind, where."""

    rule_index: int
    kind: str
    lba: int


@dataclass(frozen=True)
class CorruptPlan(FirstWinsPlan):
    """A seed plus an ordered tuple of rules; first firing rule wins."""

    seed: int
    rules: Tuple[CorruptRule, ...] = ()

    def _fires(self, index, rule, req, now, generation):
        """Whether one rule corrupts this read."""
        if not rule.applies(req, now):
            return False
        if rule.blocks:
            return any(req.lba <= lba < req.end for lba in rule.blocks)
        if rule.rate <= 0.0:
            return False
        occasion = now if rule.kind == BIT_FLIP else generation
        return _draw(self.seed, rule.kind, index, req.lba,
                     occasion) < rule.rate

    def decide_read(self, req, now, generation=0, observed=None):
        """What a successful read of ``req`` actually returns: None for
        the true payload, or a :class:`CorruptDecision` naming the
        corruption silently riding along. ``generation`` is the blok's
        write-generation counter (the injector tracks it) so torn and
        misdirected writes stick to the written version."""
        index = self._first_firing(observed, req, now, generation)
        if index is None:
            return None
        return CorruptDecision(rule_index=index, kind=self.rules[index].kind,
                               lba=req.lba)


class CorruptionInjector(Injector):
    """The plan bound to a metrics registry, with per-blok write
    generations: the disk's consultation point on the read path.

    ``note_write`` must be called for every *successful* write so torn
    and misdirected corruption attaches to written versions — a client
    that rewrites a corrupt blok deterministically re-draws (the fresh
    version either takes cleanly or is corrupt anew).
    """

    METRIC = ("corruptions_injected_total",
              "silent corruptions injected on the read path, by kind and "
              "victim stream")

    def __init__(self, plan, metrics=None):
        super().__init__(plan, metrics)
        self._generation = {}

    def generation(self, lba):
        """The write-generation counter for one (blok-aligned) LBA."""
        return self._generation.get(lba, 0)

    def note_write(self, req, now):
        """Advance the written generation of the blok ``req`` covers."""
        self._generation[req.lba] = self._generation.get(req.lba, 0) + 1

    def decide_read(self, req, now):
        """Consulted by the disk once per successful read."""
        decision = self.plan.decide_read(
            req, now, generation=self._generation.get(req.lba, 0),
            observed=self.observed)
        if decision is not None:
            self._account(kind=decision.kind, client=req.client or "?")
        return decision
