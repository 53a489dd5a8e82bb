"""Metrics: labelled counters, gauges and fixed-bucket histograms.

The paper's central claim is *accountability*: every fault, frame and
disk transaction is attributable to exactly one application (§3, §5).
The trace subsystem (:mod:`repro.sim.trace`) records individual events;
this module adds the aggregate view — cheap, always-on counters labelled
by domain/client that tests and experiments can snapshot and diff, so a
QoS-crosstalk regression shows up as a non-zero delta on the *wrong*
label instead of a skewed figure after a full experiment re-run.

Design notes:

* Instruments are *families* keyed by label sets. Hot paths bind a
  child once (``family.child(domain="a")``) and pay one attribute load
  plus an integer add per event.
* A disabled registry (``MetricsRegistry(enabled=False)``) hands out
  shared null instruments whose mutators are no-ops and which allocate
  nothing per call — instrumented code needs no ``if metrics:`` guards.
* ``snapshot()`` captures the current values; ``snapshot.diff(earlier)``
  subtracts counters and histograms (gauges keep their current value),
  which is how tests assert "this workload cost N faults for domain X
  and zero for Y".

Everything is simulation-agnostic: no clocks, no simulator imports.
"""

import json
from bisect import bisect_left


def _label_key(labels):
    """Canonical, hashable form of a label set."""
    return tuple(sorted(labels.items()))


def _label_str(key):
    return ",".join("%s=%s" % kv for kv in key)


# -- null instruments (disabled registry) -----------------------------------


class _NullChild:
    """Shared do-nothing bound instrument."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def set_max(self, value):
        pass

    def observe(self, value):
        pass

    @property
    def value(self):
        return 0


_NULL_CHILD = _NullChild()

#: Public alias: a bound instrument that accepts inc/dec/set/observe and
#: does nothing. Components taking an optional bound instrument default
#: to this so call sites need no None checks.
NULL_INSTRUMENT = _NULL_CHILD


class _NullFamily:
    """Shared do-nothing metric family."""

    __slots__ = ()

    def child(self, **labels):
        return _NULL_CHILD

    def inc(self, amount=1, **labels):
        pass

    def set(self, value, **labels):
        pass

    def observe(self, value, **labels):
        pass

    def get(self, **labels):
        return 0

    def series(self):
        return {}


_NULL_FAMILY = _NullFamily()


# -- live instruments --------------------------------------------------------


class _BoundCounter:
    """A counter cell bound to one label set."""

    __slots__ = ("_cell",)

    def __init__(self, cell):
        self._cell = cell

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        self._cell[0] += amount

    @property
    def value(self):
        return self._cell[0]


class _BoundGauge:
    """A gauge cell bound to one label set."""

    __slots__ = ("_cell",)

    def __init__(self, cell):
        self._cell = cell

    def set(self, value):
        self._cell[0] = value

    def set_max(self, value):
        if value > self._cell[0]:
            self._cell[0] = value

    def inc(self, amount=1):
        self._cell[0] += amount

    def dec(self, amount=1):
        self._cell[0] -= amount

    @property
    def value(self):
        return self._cell[0]


class _BoundHistogram:
    """Bucket counts + sum + count for one label set.

    The cell is its own bound instrument: ``child()`` hands it out
    directly, so an observation is one call.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.sum = 0
        self.count = 0

    def observe(self, value):
        self.count += 1
        self.sum += value
        # The first bound >= value; past the last bound is the overflow.
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0


class _Family:
    """Common machinery: one cell per distinct label set."""

    kind = "?"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._cells = {}  # label key -> cell

    def _new_cell(self):
        raise NotImplementedError

    def _bind(self, cell):
        raise NotImplementedError

    def _cell(self, labels):
        key = _label_key(labels)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self._new_cell()
        return cell

    def child(self, **labels):
        """Bind a label set once; the bound instrument is the hot path."""
        return self._bind(self._cell(labels))

    def series(self):
        """{label key tuple: plain value} for snapshots."""
        return {key: self._export(cell) for key, cell in self._cells.items()}

    def _export(self, cell):
        return cell[0]


class CounterFamily(_Family):
    kind = "counter"

    def _new_cell(self):
        return [0]

    def _bind(self, cell):
        return _BoundCounter(cell)

    def inc(self, amount=1, **labels):
        _BoundCounter(self._cell(labels)).inc(amount)

    def get(self, **labels):
        cell = self._cells.get(_label_key(labels))
        return cell[0] if cell else 0


class GaugeFamily(_Family):
    kind = "gauge"

    def _new_cell(self):
        return [0]

    def _bind(self, cell):
        return _BoundGauge(cell)

    def set(self, value, **labels):
        self._cell(labels)[0] = value

    def inc(self, amount=1, **labels):
        self._cell(labels)[0] += amount

    def get(self, **labels):
        cell = self._cells.get(_label_key(labels))
        return cell[0] if cell else 0


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, name, buckets, help=""):
        super().__init__(name, help=help)
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be ascending")
        self.bounds = bounds

    def _new_cell(self):
        return _BoundHistogram(self.bounds)

    def _bind(self, cell):
        return cell

    def observe(self, value, **labels):
        # The cell's update written out, not a call to
        # _BoundHistogram.observe: perfbench's layer tracer counts calls
        # of both, and one observation must count once.
        cell = self._cell(labels)
        cell.count += 1
        cell.sum += value
        cell.counts[bisect_left(self.bounds, value)] += 1

    def get(self, **labels):
        cell = self._cells.get(_label_key(labels))
        if cell is None:
            return {"count": 0, "sum": 0,
                    "buckets": [0] * (len(self.bounds) + 1)}
        return self._export(cell)

    def _export(self, cell):
        return {"count": cell.count, "sum": cell.sum,
                "buckets": list(cell.counts)}


# Default latency bucket bounds (ns): 1 us .. 10 s, roughly log-spaced.
LATENCY_BUCKETS_NS = (
    1_000, 10_000, 100_000, 1_000_000, 5_000_000, 10_000_000,
    50_000_000, 100_000_000, 500_000_000, 1_000_000_000, 10_000_000_000,
)


class MetricsSnapshot:
    """An immutable capture of every metric series at one instant.

    ``data`` maps ``name -> (kind, {label key: value})`` where counter
    and gauge values are numbers and histogram values are
    ``{"count", "sum", "buckets"}`` dicts.
    """

    def __init__(self, data):
        self._data = data

    def names(self):
        return sorted(self._data)

    def get(self, name, /, **labels):
        """Value of one series (0 / empty histogram if never touched)."""
        kind, series = self._data.get(name, ("counter", {}))
        value = series.get(_label_key(labels))
        if value is None:
            return {"count": 0, "sum": 0, "buckets": []} \
                if kind == "histogram" else 0
        return value

    def labels(self, name, /):
        """The label sets recorded under ``name``, as dicts."""
        _kind, series = self._data.get(name, ("counter", {}))
        return [dict(key) for key in series]

    def total(self, name, /, **labels):
        """Sum across label sets, optionally restricted to those that
        include ``labels`` (histograms sum their counts).

        ``total("faults_injected_total", client="pager")`` sums every
        kind of fault injected against one client.
        """
        kind, series = self._data.get(name, ("counter", {}))
        want = set(labels.items())
        if kind == "histogram":
            return sum(cell["count"] for key, cell in series.items()
                       if want <= set(key))
        return sum(value for key, value in series.items()
                   if want <= set(key))

    def diff(self, earlier):
        """The change since ``earlier``: counters and histograms
        subtract; gauges keep their current (newer) value."""
        out = {}
        for name, (kind, series) in self._data.items():
            _ekind, eseries = earlier._data.get(name, (kind, {}))
            if kind == "gauge":
                out[name] = (kind, dict(series))
                continue
            delta = {}
            for key, value in series.items():
                if kind == "histogram":
                    prev = eseries.get(key)
                    if prev is None:
                        delta[key] = dict(value, buckets=list(value["buckets"]))
                    else:
                        delta[key] = {
                            "count": value["count"] - prev["count"],
                            "sum": value["sum"] - prev["sum"],
                            "buckets": [a - b for a, b in
                                        zip(value["buckets"], prev["buckets"])],
                        }
                else:
                    delta[key] = value - eseries.get(key, 0)
            out[name] = (kind, delta)
        return MetricsSnapshot(out)

    def as_dict(self):
        """JSON-able form: {name: {"kind", "series": [{labels, value}]}}."""
        out = {}
        for name, (kind, series) in sorted(self._data.items()):
            out[name] = {
                "kind": kind,
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ],
            }
        return out

    def to_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "<MetricsSnapshot %d metrics>" % len(self._data)


class MetricsRegistry:
    """Owns every metric family of one system instance.

    Families are created on first request and are idempotent: asking for
    the same name twice returns the same family (with a kind check, and
    for histograms a bucket-bounds check, so a name cannot silently
    change meaning).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._families = {}

    def _family(self, name, kind, factory):
        if not self.enabled:
            return _NULL_FAMILY
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = factory()
        elif family.kind != kind:
            raise ValueError("metric %r is a %s, not a %s"
                             % (name, family.kind, kind))
        return family

    def counter(self, name, help=""):
        return self._family(name, "counter",
                            lambda: CounterFamily(name, help=help))

    def gauge(self, name, help=""):
        return self._family(name, "gauge",
                            lambda: GaugeFamily(name, help=help))

    def histogram(self, name, buckets=LATENCY_BUCKETS_NS, help=""):
        """The histogram family ``name``; raises ``ValueError`` if it
        already exists with other bucket bounds."""
        bounds = tuple(buckets)
        family = self._family(
            name, "histogram",
            lambda: HistogramFamily(name, bounds, help=help))
        if family is not _NULL_FAMILY and family.bounds != bounds:
            raise ValueError("histogram %r has buckets %r, not %r"
                             % (name, family.bounds, bounds))
        return family

    def snapshot(self):
        """Capture every series right now."""
        data = {}
        for name, family in self._families.items():
            data[name] = (family.kind, family.series())
        return MetricsSnapshot(data)

    def to_json(self, indent=2):
        return self.snapshot().to_json(indent=indent)

    def render_text(self):
        """Aligned plain-text dump (debugging aid)."""
        lines = []
        for name, (kind, series) in sorted(self.snapshot()._data.items()):
            for key, value in sorted(series.items()):
                if kind == "histogram":
                    value = "count=%d sum=%d" % (value["count"], value["sum"])
                label = _label_str(key)
                lines.append("%s{%s} %s" % (name, label, value))
        return "\n".join(lines)


#: Shared always-disabled registry: the default for components built
#: outside a :class:`~repro.system.NemesisSystem` (unit tests, ad-hoc
#: scripts). Instruments from it are no-ops.
NULL_REGISTRY = MetricsRegistry(enabled=False)
