"""Protection domains.

A protection domain is the mapping from stretches to rights that a
domain's threads execute under. Nemesis keeps one per domain by default,
but the abstraction is separate (several domains can share one, and a
domain can switch — which is why the protection-domain route for
(un)protect in Table 1 is so cheap: it touches one entry, not N PTEs).

Reads (``rights_for``) are free — hardware consults cached rights on
every access. Updates charge the cost model.
"""

from repro.mm.rights import _NONE, Rights


class ProtectionDomain:
    """Mapping sid -> Rights, with cost-charged updates."""

    _next_id = 0

    def __init__(self, meter, name=""):
        ProtectionDomain._next_id += 1
        self.id = ProtectionDomain._next_id
        self.name = name or "pdom-%d" % self.id
        self.meter = meter
        self._rights = {}
        self.updates = 0

    def rights_for(self, sid) -> Rights:
        """Rights this domain holds on stretch ``sid`` (none by default)."""
        return self._rights.get(sid, _NONE)

    def set_rights(self, sid, rights, hot=False):
        """Install rights for a stretch.

        ``hot`` selects the cache-hot repeated-update cost (the Table 1
        bracketed numbers are measured over repeated alternation).
        Idempotent updates are detected and short-circuited — §7: "the
        protection scheme detects idempotent changes", making a repeated
        identical (un)protect cost only ~0.15 us.
        """
        current = self._rights.get(sid, _NONE)
        if current == rights:
            self.meter.charge("stretch_validate")
            return False
        self.meter.charge("protdom_write_hot" if hot else "protdom_write")
        self.updates += 1
        if rights:
            self._rights[sid] = rights
        else:
            self._rights.pop(sid, None)
        return True

    def drop(self, sid):
        """Remove all rights for a destroyed stretch (no charge: part of
        stretch destruction, a system-domain operation)."""
        self._rights.pop(sid, None)

    def __repr__(self):
        return "<ProtectionDomain %s stretches=%d>" % (self.name,
                                                       len(self._rights))
