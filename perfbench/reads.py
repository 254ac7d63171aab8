"""Read traffic, the bare-lookup reference, and chunk timing.

The trace lives in three numpy arrays (kind, u, v), not in request
objects, so the harness adds almost nothing to the program's heap.
Traffic follows the ``TrafficSpec`` defaults: Zipf 1.1 popularity
shuffled onto vertex ids, 93% point, 2% row and 5% top-10 queries;
the shuffle is redrawn every ``segment`` requests.

A chunk is served twice: once by the system, timing each request, and
once by the bare-lookup reference right after it, timed as a whole.
The reference is plain Python over the oracle matrix and imports
nothing from ``repro``; its answers are also the expected ones.
"""

from __future__ import annotations

import time

import numpy as np

POINT, ROW, TOPK = 0, 1, 2
TOPK_K = 10
ZIPF_S = 1.1
ROW_FRAC = 0.02
TOPK_FRAC = 0.05


class Trace:
    """A seeded request stream over ``n`` vertices, read chunk by chunk.

    Every ``segment`` requests the popularity ranks are shuffled onto
    the ids afresh, so the hot set moves; a run then averages the cache
    over several hot sets instead of riding on one draw of it.
    ``skip`` requests at the front are handed out once; afterwards the
    stream wraps around to ``skip`` if a run outlasts it.
    """

    def __init__(self, n: int, count: int, seed: int, *, segment: int,
                 skip: int = 0) -> None:
        rng = np.random.default_rng([seed, 1])
        ranks = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_S
        ranks /= ranks.sum()
        us, vs = [], []
        for start in range(0, count, segment):
            size = min(segment, count - start)
            popularity = np.empty(n)
            popularity[rng.permutation(n)] = ranks
            us.append(rng.choice(n, size=size, p=popularity))
            vs.append(rng.choice(n, size=size, p=popularity))
        self.us = np.concatenate(us).astype(np.int32)
        vs = np.concatenate(vs).astype(np.int32)
        self.vs = np.where(vs == self.us, (vs + 1) % n, vs).astype(np.int32)
        draw = rng.random(count)
        self.kinds = np.select(
            [draw < ROW_FRAC, draw < ROW_FRAC + TOPK_FRAC], [ROW, TOPK], POINT
        ).astype(np.int8)
        self._skip = skip
        self._pos = 0

    def take(self, size: int):
        """The next ``size`` requests as three lists of Python ints."""
        if self._pos + size > len(self.kinds):
            self._pos = self._skip
        sl = slice(self._pos, self._pos + size)
        self._pos += size
        return self.kinds[sl].tolist(), self.us[sl].tolist(), self.vs[sl].tolist()


def ref_topk(row: np.ndarray, u: int, k: int):
    """Nearest reachable vertices, by distance then id, excluding ``u``."""
    idx = np.flatnonzero(row < np.inf)
    idx = idx[idx != u]
    order = np.lexsort((idx, row[idx]))[:k]
    return [(int(idx[j]), float(row[idx[j]])) for j in order]


class Chunk:
    """Buffers for one chunk of requests: answers, latencies, reference."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.lat = [0] * size
        self.got = [None] * size
        self.want = [None] * size

    def serve(self, requests, point, row, topk) -> np.ndarray:
        """Answer through the system, timing each request (ns)."""
        kinds, us, vs = requests
        lat, got = self.lat, self.got
        clock = time.perf_counter_ns
        for i in range(self.size):
            kind, u = kinds[i], us[i]
            t0 = clock()
            try:
                if kind == POINT:
                    answer = point(u, vs[i])
                elif kind == ROW:
                    answer = row(u)
                else:
                    answer = topk(u, TOPK_K)
            except Exception as exc:  # counted as a failed request
                answer = exc
            lat[i] = clock() - t0
            got[i] = answer
        return np.array(lat, dtype=np.float64)

    def reference(self, requests, oracle: np.ndarray) -> float:
        """Answer by bare lookup; returns the mean ns per request."""
        kinds, us, vs = requests
        want = self.want
        clock = time.perf_counter_ns
        t0 = clock()
        for i in range(self.size):
            kind, u = kinds[i], us[i]
            if kind == POINT:
                want[i] = oracle[u, vs[i]]
            elif kind == ROW:
                want[i] = oracle[u].copy()
            else:
                want[i] = ref_topk(oracle[u], u, TOPK_K)
        return (clock() - t0) / self.size

    def verify(self, requests, report) -> None:
        """Each answer against the reference; shed or degraded fails."""
        kinds = requests[0]
        for i in range(self.size):
            answer, want = self.got[i], self.want[i]
            # the front end wraps values in a QueryResponse, the bare
            # engine returns them directly
            status = getattr(answer, "status", "ok")
            value = getattr(answer, "value", answer)
            if isinstance(answer, Exception) or status != "ok":
                ok = False
            elif kinds[i] == ROW:
                ok = (isinstance(value, np.ndarray)
                      and value.tobytes() == want.tobytes())
            else:
                ok = bool(value == want)
            report.check(ok, lambda: f"{('point', 'row', 'topk')[kinds[i]]} "
                                     f"answer {answer!r:.80} != {want!r:.80}")
