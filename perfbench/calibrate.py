"""Host-speed calibration with a fixed reference task.

The processor of a shared host runs faster or slower in spells (up to about
1.7x apart on a 2-vCPU KVM guest), lasting from a fraction of a second to
minutes, so a wall-clock time alone moves with the host as much as with the
program. The benchmark therefore times a fixed reference task along with the
operations and the set-up, and scales their times to a nominal host on which
one call of the task takes ``NOMINAL_NS``. A change to the program moves the
operation's time but not the task's, so it shows in full; a change of host
speed moves both and mostly cancels out.

The task is the benchmark's own pure-Python code, doing what the program
does most (line splitting, dict and set building, BFS, MD5) on an 800-block
graph that depends on neither the program nor ``--seed``. Its working set is
about that of the program's largest inputs. A task that also chased pointers
through a table larger than the caches tracked the program worse: some spells
slow such memory accesses and leave the program alone.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from collections import deque

import inputs

NOMINAL_NS = 3_000_000  # one reference call on the nominal host: 3 ms
SHARE = 0.2  # reference calls take this share of the time of the operations they follow
WINDOW = 11  # an operation's reference time is the median of the last WINDOW calls
REFERENCE_V = 800


class Calibrator:
    """Runs the reference task and reports how long one call takes now."""

    def __init__(self):
        names, edges = inputs.wide_graph(REFERENCE_V, random.Random("calibration"))
        self.entry = names[0]
        self.text = inputs.to_dot(names, edges)
        self.expected = self.task()
        self.recent: deque[int] = deque(maxlen=WINDOW)
        self.owed_ns = 0.0

    def task(self) -> str:
        """Parse the DOT edges, BFS from the entry, hash the tree edges in order."""
        succ: dict[str, set[str]] = {}
        for line in self.text.splitlines():
            parts = line.strip().rstrip(";").split(" -> ")
            if len(parts) == 2:
                succ.setdefault(parts[0], set()).add(parts[1])
        seen = {self.entry}
        frontier = [self.entry]
        digest = hashlib.md5()
        while frontier:
            layer = []
            for u in frontier:
                for v in sorted(succ.get(u, ())):
                    if v not in seen:
                        seen.add(v)
                        layer.append(v)
                        digest.update(f"{u}->{v}".encode())
            frontier = layer
        return digest.hexdigest()

    def timed_call(self) -> int:
        t0 = time.perf_counter_ns()
        result = self.task()
        elapsed = time.perf_counter_ns() - t0
        if result != self.expected:
            raise RuntimeError("the reference task gave a different result")
        return elapsed

    def call_ns(self, busy_ns: float) -> int:
        """Reference call time now, after something that kept the processor busy for *busy_ns*.

        Fills the window first. Then calls run until their total time has
        caught up with SHARE of all the busy time reported so far. Returns
        the median of the last WINDOW calls.
        """
        while len(self.recent) < WINDOW:
            self.recent.append(self.timed_call())
        self.owed_ns += busy_ns * SHARE
        while self.owed_ns > 0:
            elapsed = self.timed_call()
            self.recent.append(elapsed)
            self.owed_ns -= elapsed
        return statistics.median_low(self.recent)


def scaled(elapsed_ns: float, call_ns: float) -> float:
    """*elapsed_ns* on the nominal host, given the reference call time measured with it."""
    return elapsed_ns * NOMINAL_NS / call_ns
