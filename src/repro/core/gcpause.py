"""Pause CPython's cyclic garbage collector around allocation-heavy builders.

Compiling a plan, building its replay schedule, loading or storing it, and
simulating a program each allocate hundreds of thousands of small tracked
objects (bounds tuples, regions, instructions, plan steps, schedule items)
that stay alive for the length of the build.  The collector scans the
young generation every 700 net allocations and, each time the survivors
have grown the heap by a quarter, the whole heap again -- yet these
builders create no reference cycle for it to free: reference counting
already reclaims everything they drop (``tests/test_gcpause.py`` holds
each of them to that).  Running them under :func:`gc_paused` removes
those scans and changes nothing else: outputs are byte-for-byte the
same.

The pause only disables the collector; it never collects, freezes or
retunes it.  When the last pause closes, the next allocation -- in
practice the closing itself -- runs one young collection over what the
build left alive, so that cost stays at the end of the builder's call.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

# Module-level state is right here: the collector is one switch per
# process, so the record of who paused it must be one per process too.
# The count of open pauses lets a nested or concurrent pause (a
# replay_schedule() inside another pause, two threads compiling at once)
# close without resuming the collector under a build still running;
# ``_resume`` remembers whether the collector was on when the first
# pause opened, so a caller that turned it off keeps it off.
_lock = threading.Lock()
_open = 0
_resume = False


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector until the last open pause closes."""
    global _open, _resume
    with _lock:
        if _open == 0:
            _resume = gc.isenabled()
            gc.disable()
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if _open == 0 and _resume:
                gc.enable()
