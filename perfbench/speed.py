"""The machine's momentary speed, measured with a fixed task.

On a shared machine the same pass of a workload can run 10-30% slower
a few minutes later, because other tenants contend for caches and
memory bandwidth; that is more than any regression bound could
tolerate.  A tight arithmetic loop does not see it, so the reference
here is the kind of work the program's hot loops do: sparse integer
row elimination on dicts.  Workers run it before a query whenever
EVERY_S has passed since its last run, and once after the last query;
run.py scales each query's measured time t to

    t * NOMINAL_S / (median duration of the reference runs from
                     WINDOW_S before the query to WINDOW_S after it,
                     and of the last run before and first run after it)

so that a slow minute on the machine does not read as a slow program.
The reference shares no code with hfplus, so a change to the program
moves the scaled times as much as the raw ones.
"""

import random
import time

# about the reference's duration on an idle 2-core 2.1 GHz Xeon VM, so
# that scaled times read close to wall-clock there
NOMINAL_S = 0.018
# queries shorter than this share their reference measurements
EVERY_S = 0.5
WINDOW_S = 1.0


def reference_task():
    rng = random.Random(5)
    n = 1500
    rows = [{j: rng.choice((1, -1, 2)) for j in rng.sample(range(n), 6)}
            for _ in range(n)]
    for p in range(n):
        row = rows[p]
        if not row:
            continue
        col = min(row)
        pivot = row[col]
        for other in rows[p + 1:p + 40]:
            f = other.get(col)
            if f:
                for j, x in row.items():
                    y = (other.get(j, 0) * pivot - f * x) % 1000003
                    if y:
                        other[j] = y
                    else:
                        other.pop(j, None)
    return rows


class Sampler:
    """Durations of the reference task, taken at most EVERY_S apart."""

    def __init__(self):
        self.durations = []
        self.times = []
        self._last = None

    def measure(self):
        start = time.perf_counter()
        reference_task()
        self._last = time.perf_counter()
        self.durations.append(self._last - start)
        self.times.append((start + self._last) / 2)

    def maybe(self):
        if self._last is None or time.perf_counter() - self._last >= EVERY_S:
            self.measure()
