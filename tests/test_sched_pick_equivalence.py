"""The inline EDF picks choose exactly what the ``_sort_key`` reference
does.

``AtroposScheduler._pick`` and ``_pick_slack`` test the ``runnable``
conditions inline and compare deadlines alone, relying on ``clients``
being in admission order for the ``_index`` tie-break. Over random
client sets — equal deadlines, departed clients, exhausted laxity,
``remaining <= 0``, slack-eligible clients with and without work — both
must return the same client as ``min(..., key=_sort_key)`` over the
clients the property-based definition selects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.atropos import AtroposClient, AtroposScheduler, QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS


def reference_pick(sched):
    runnable = [client for client in sched.clients if client.runnable]
    return min(runnable, key=AtroposClient._sort_key, default=None)


def reference_pick_slack(sched):
    if not sched.slack_enabled:
        return None
    candidates = [client for client in sched.clients
                  if not client.departed and client.qos.extra
                  and client.queue and not client.runnable]
    return min(candidates, key=AtroposClient._sort_key, default=None)


client_state = st.fixed_dictionaries({
    "extra": st.booleans(),
    # Few distinct deadlines, so ties are common.
    "deadline": st.sampled_from([10 * MS, 20 * MS, 30 * MS]),
    "remaining": st.sampled_from([-2 * MS, 0, 1, 5 * MS]),
    "lax_exhausted": st.booleans(),
    "departed": st.booleans(),
    "queued": st.integers(0, 2),
})


def build(states, slack_enabled):
    sim = Simulator()
    sched = AtroposScheduler(sim, slack_enabled=slack_enabled)
    for index, state in enumerate(states):
        client = sched.admit("c%d" % index,
                             QoSSpec(period_ns=100 * MS, slice_ns=5 * MS,
                                     extra=state["extra"]))
        client.deadline = state["deadline"]
        client.remaining = state["remaining"]
        client.lax_exhausted = state["lax_exhausted"]
        client.departed = state["departed"]
        client.queue.extend(object() for _ in range(state["queued"]))
    return sched


@given(st.lists(client_state, max_size=10), st.booleans())
@settings(max_examples=300, deadline=None)
def test_inline_picks_match_sort_key_reference(states, slack_enabled):
    sched = build(states, slack_enabled)
    assert sched._pick() is reference_pick(sched)
    assert sched._pick_slack() is reference_pick_slack(sched)


@given(st.lists(st.booleans(), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_clients_stay_in_admission_order(departs):
    """Departures never reorder ``clients`` and re-admissions append,
    so list order is ``_index`` order — the pick's tie-break."""
    sim = Simulator()
    sched = AtroposScheduler(sim)
    qos = QoSSpec(period_ns=100 * MS, slice_ns=5 * MS)
    for index, depart in enumerate(departs):
        client = sched.admit("c%d" % index, qos)
        if depart:
            sched.depart(client)
            sched.admit("c%d-again" % index, qos)
    indexes = [client._index for client in sched.clients]
    assert indexes == sorted(indexes)
    assert len(set(indexes)) == len(indexes)
