"""Property tests for ``EventLoop.schedule_series``: a series is the
same events, under the same ``(time, seq)`` keys, as one ``schedule_at``
per entry in input order. Times that never decrease take the series'
second path (fired by position, no index list), also when they are
computed on read, as a generated stream hands them to the loop."""

from collections.abc import Sequence
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import EventLoop
from repro.simulator.flowgen import RateTimes

# Few distinct times, so that ties are the common case.
times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
entries = st.lists(st.tuples(times, st.booleans()), max_size=14)


class Computed(Sequence):
    """Times computed on read: no list behind the series."""

    def __init__(self, times):
        self._read = tuple(times).__getitem__
        self._count = len(times)

    def __len__(self):
        return self._count

    def __getitem__(self, index):
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._read(index)


def drive(as_series, start, before, first, second, stop, column=list):
    """Schedule ``before`` events, then two batches of entries (each as
    one series or as consecutive ``schedule_at`` calls), run to
    ``stop`` and then to the end. An entry flagged True schedules, when
    it fires, one event at its own time and one later. Returns every
    firing in order with the loop's state at the stop and at the end."""
    loop = EventLoop()
    loop.run_until(start)
    fired = []

    def event(label, spawns):
        fired.append((label, loop.now))
        if spawns:
            loop.schedule_at(loop.now, partial(event, ("same-time", label), False))
            loop.schedule(0.25, partial(event, ("later", label), False))

    for index, at in enumerate(before):
        loop.schedule_at(start + at, partial(event, ("before", index), True))
    for name, batch in (("first", first), ("second", second)):
        batch_times = column([start + at for at, _ in batch])
        if as_series:
            loop.schedule_series(
                batch_times,
                lambda index, name=name, batch=batch: event((name, index), batch[index][1]),
            )
        else:
            for index, at in enumerate(batch_times):
                loop.schedule_at(at, partial(event, (name, index), batch[index][1]))
    after_scheduling = (loop._sequence, loop.pending())
    loop.run_until(start + stop)
    at_stop = (list(fired), loop._sequence, loop.pending())
    loop.run()
    return after_scheduling, at_stop, fired, loop._sequence, loop.pending()


@settings(max_examples=200, deadline=None)
@given(
    start=st.sampled_from([0.0, 2.0]),
    before=st.lists(times, max_size=4),
    first=entries,
    second=entries,
    stop=times,
)
def test_series_is_consecutive_schedule_at(start, before, first, second, stop):
    assert drive(True, start, before, first, second, stop) == drive(
        False, start, before, first, second, stop
    )


# Entries in time order: a series over them never sorts.
ordered_entries = entries.map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    start=st.sampled_from([0.0, 2.0]),
    before=st.lists(times, max_size=4),
    first=ordered_entries,
    second=ordered_entries,
    stop=times,
)
def test_a_computed_series_fires_as_the_list_series(start, before, first, second, stop):
    """Spawned ``schedule_at`` events interleave with the series as it
    fires; keys, order and ``pending()`` match the list series and one
    ``schedule_at`` per entry."""
    computed = drive(True, start, before, first, second, stop, column=Computed)
    assert computed == drive(True, start, before, first, second, stop)
    assert computed == drive(False, start, before, first, second, stop)


def run_rate(as_series, rate_times, stop):
    loop, fired = EventLoop(), []

    def fire(index):
        fired.append((index, loop.now))

    if as_series:
        loop.schedule_series(rate_times, fire)
    else:
        for index, at in enumerate(rate_times):
            loop.schedule_at(at, partial(fire, index))
    scheduled = loop.pending()
    loop.run_until(stop)
    at_stop = loop.pending()
    loop.run()
    return scheduled, at_stop, fired, loop._sequence


@settings(max_examples=100, deadline=None)
@given(rate=st.sampled_from([3.0, 7.0, 1000.0]), duration=times, start=times, stop=times)
def test_a_rate_series_is_one_schedule_at_per_time(rate, duration, start, stop):
    """``RateTimes``, the times of the generated constant-rate flow."""
    rate_times = RateTimes(rate, duration, start)
    assert run_rate(True, rate_times, start + stop) == run_rate(False, rate_times, start + stop)


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(times, max_size=20), stop=times)
def test_pending_counts_unfired_entries(batch, stop):
    loop = EventLoop()
    loop.schedule_series(batch, lambda index: None)
    assert loop.pending() == len(batch)
    loop.run_until(stop)
    assert loop.pending() == sum(at > stop for at in batch)
    loop.run()
    assert loop.pending() == 0
