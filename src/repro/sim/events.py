"""The simulator's event heap: its entry shape and its invariants.

:class:`repro.sim.core.Simulator` keeps a binary heap (:mod:`heapq`)
of :data:`Handle` tuples ``(time, seq, action)`` and works on it
inline — no queue object and no helper method stands between the loop
and ``heappush`` / ``heappop``, because each extra Python frame per
event is paid on every event of every run.  What the heap guarantees:

* **Order.**  Entries fire in ``(time, seq)`` order.  ``seq`` is the
  simulator's scheduling counter, so events at equal timestamps fire
  in scheduling order (FIFO), which makes simulations fully
  deterministic for a fixed seed — a property the whole experiment
  harness relies on.  ``seq`` is unique, so every sift compares a
  float and an int in C and the action is never compared.
  ``reserve`` takes a seq without scheduling; ``schedule_reserved``
  files an event under it later, and the event orders as if it had
  been scheduled at the ``reserve``.  An event may so be filed only
  once it is needed and still keep its place among equal times.
* **Handles.**  The entry itself is the handle ``schedule`` returns.
  ``cancel`` files the handle's ``seq`` in a set and the pop drops a
  filed entry when it reaches the top, so cancelling is O(1) and the
  heap is never re-sifted.  The pop consults the set only while it is
  non-empty.  A cancelled event has still used up its ``seq``: the
  numbering of later events does not depend on cancellations.
* **Time.**  Every queued time is finite and no earlier than the
  clock: ``schedule`` and ``schedule_at`` refuse anything else, and
  ``run_until`` lands the clock only on a horizon no queued event
  precedes.  So the clock never runs backwards and the pop needs no
  time check.  ``schedule_reserved`` refuses a time before the clock
  too.  ``(now, dispatch_seq)`` is the dispatch point: the event being
  dispatched, or after ``run_until`` the horizon with every seq issued
  so far.  A reserved ``(time, seq)`` has had its turn when it orders
  before that point.  A caller filing one whose ``time`` equals the
  clock therefore compares seqs: it files only when ``seq`` exceeds
  ``dispatch_seq``.
"""

from __future__ import annotations

from typing import Callable, Tuple

#: A scheduled callback: called once, with no arguments.
Action = Callable[[], None]

#: One heap entry ``(time, seq, action)``, and the opaque handle that
#: ``Simulator.schedule`` returns for ``Simulator.cancel``.
Handle = Tuple[float, int, Action]
