"""Drift reference: a fixed computation timed next to every timed segment.

The machine's speed drifts by up to 2x within a minute, and the program's
segments slow down with it. The reference runs the benchmark's own matcher
over a fixed, seed-independent input, so it exercises the same kind of
interpreter work as the program (tuple and set access, float compares,
list building) and shares no code with it. A segment's time at reference
speed is its measured time times REFERENCE_S over the mean of the
reference timings taken right before and right after it.

REFERENCE_S is a typical pass on the machine the README's figures come
from, so normalised figures read close to raw seconds there.
"""

from __future__ import annotations

import random
import time

from .inputs import draw_words
from .reference import ReferenceMatcher

REFERENCE_S = 0.0030
_QUERIES = 3_000
_OBJECTS = 400


class Calibration:
    def __init__(self) -> None:
        rng = random.Random("calibration")
        self.matcher = ReferenceMatcher()
        for qid in range(_QUERIES):
            x, y = rng.random(), rng.random()
            side = rng.uniform(0.02, 0.06)
            self.matcher.add((qid, x, y, x + side, y + side, draw_words(rng, 2),
                              "OVERLAPS" if qid % 2 else "INSIDE", 2**31))
        self.objects = [(oid, rng.random(), rng.random(), draw_words(rng, 4), oid)
                        for oid in range(_OBJECTS)]
        self.found = self._pass()

    def _pass(self) -> int:
        match = self.matcher.match
        return sum(len(match(o)) for o in self.objects)

    def run(self) -> float:
        """Seconds one pass of the reference takes right now.

        An untimed pass first brings the reference's own data back into the
        caches, so the timing does not depend on what the program left there.
        """
        self._pass()
        t0 = time.perf_counter()
        found = self._pass()
        elapsed = time.perf_counter() - t0
        if found != self.found:
            raise RuntimeError("the drift reference is not deterministic")
        return elapsed
