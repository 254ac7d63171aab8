"""Shared pieces of the benchmark: import guard, oracle, tracer, host record.

Nothing here imports ``repro`` at module level: :func:`load_repro` does,
after checking that the checkout's own ``src/repro`` exists, so the
benchmark fails loudly instead of measuring some other installed copy.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_repro():
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {src}"
        )
    return repro


@contextmanager
def workdir():
    """A scratch directory inside the checkout, removed on exit."""
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def stop_helpers() -> None:
    """Stop the resource tracker that ``multiprocessing`` starts beside
    the first shared-memory segment, and wait for it to end.  It would
    otherwise outlive the run; by then every segment is released, so it
    has nothing left to clean up."""
    import gc
    from multiprocessing import resource_tracker

    gc.collect()  # run the finalizers of segments still unreferenced
    resource_tracker._resource_tracker._stop()


# -- oracle ---------------------------------------------------------------


def scipy_csr(graph):
    """The graph's arcs as a scipy CSR matrix (built here, not by repro)."""
    import scipy.sparse as sp

    n = graph.num_vertices
    return sp.csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(n, n)
    )


def scipy_apsp(matrix) -> np.ndarray:
    """scipy's C Dijkstra from every source: the oracle and the reference."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(matrix, directed=True)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class SetupSamples:
    """Set-up times taken once before the timed loop and again, with a
    throwaway set-up, every ``interval`` seconds inside it; ``setup_s``
    is their median.

    This host's speed swings by a fifth from one second to the next, and
    set-ups repeated back to back all land in the same swing: the
    medians of two sets of runs then differed by 30%.  Spread over the
    run, the samples average over the swings.
    """

    def __init__(self, first: float, resample, interval: float) -> None:
        #: ``resample()`` runs one throwaway set-up and returns its time
        self.resample = resample
        self.interval = interval
        self.samples = [first]
        self._next = time.perf_counter() + interval

    def due(self) -> float:
        """Take a sample if one is due; returns the wall time it took,
        by which the caller extends its timed loop."""
        t0 = time.perf_counter()
        if t0 < self._next:
            return 0.0
        self.samples.append(self.resample())
        self._next = time.perf_counter() + self.interval
        return self._next - self.interval - t0

    def median(self) -> float:
        return median(self.samples)


# -- per-layer tracing ----------------------------------------------------


class Tracer:
    """Spans around calls into a layer's public methods, kept in memory.

    :meth:`wrap` replaces one bound method of one object with a timing
    closure.  Nested wrapped calls form a stack, so each span knows how
    much of its duration its children covered; a layer's self time is
    its total minus that.
    """

    def __init__(self) -> None:
        self._stack: list = []
        #: span name -> [calls, total_ns, child_ns]
        self.spans = defaultdict(lambda: [0, 0, 0])

    def wrap(self, obj, attr: str, name: str) -> None:
        fn = getattr(obj, attr)
        stack = self._stack
        acc = self.spans[name]
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                acc[0] += 1
                acc[1] += dur
                acc[2] += stack.pop()
                if stack:
                    stack[-1] += dur

        setattr(obj, attr, span)

    def mean_us(self, *names: str) -> float:
        """Mean duration per call over the named spans (0 if none ran)."""
        calls = sum(self.spans[n][0] for n in names)
        total = sum(self.spans[n][1] for n in names)
        return total / calls / 1e3 if calls else 0.0

    def self_us(self, *names: str) -> float:
        """Mean self time per call over the named spans."""
        calls = sum(self.spans[n][0] for n in names)
        own = sum(self.spans[n][1] - self.spans[n][2] for n in names)
        return own / calls / 1e3 if calls else 0.0


# -- small helpers --------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _steal_ticks() -> int:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return -1


def host_record() -> dict:
    """Reported only: lets a noisy run be seen, never discards it."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "loadavg": list(os.getloadavg()),
        "steal_ticks": _steal_ticks(),
    }


def sweep_ref(matrix, sources) -> None:
    """A plain label-correcting Dijkstra from each source: a FIFO queue
    and one small numpy relaxation per popped vertex.  Written here, not
    taken from ``repro``, so that no change to the program moves it."""
    from collections import deque

    indptr, indices, weights = matrix.indptr, matrix.indices, matrix.data
    n = matrix.shape[0]
    for source in sources:
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        queued = np.zeros(n, dtype=bool)
        queue = deque([source])
        queued[source] = True
        while queue:
            u = queue.popleft()
            queued[u] = False
            lo, hi = indptr[u], indptr[u + 1]
            nbrs = indices[lo:hi]
            cand = float(dist[u]) + weights[lo:hi]
            better = cand < dist[nbrs]
            if not better.any():
                continue
            targets = nbrs[better]
            dist[targets] = cand[better]
            for v in targets.tolist():
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
