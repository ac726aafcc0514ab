"""Run conditions recorded next to every benchmark result.

The benchmark pins BLAS/OpenMP threads in its own environment before
numpy loads (:func:`pin_threads`); the forked rank processes inherit the
limit.  :class:`Conditions` then records what was actually in effect --
the thread count the loaded OpenBLAS reports, CPUs, ranks per CPU, the
CPU steal share over the run -- and flags runs that should not be read
as results (oversubscribed, or high steal).
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

#: Ranks every workload runs: one launcher plus two rank processes.
WORLD = 2

#: Steal share above which a run is flagged: a neighbour took enough of
#: the CPUs to distort the timings.
HIGH_STEAL = 0.05

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_threads(world: int) -> int:
    """Limit BLAS/OpenMP threads to ``max(1, cpus // world)``.

    Must run before numpy is imported: OpenBLAS sizes its pool at load.
    Returns the limit set.
    """
    threads = max(1, cpu_count() // world)
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def loaded_blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and "/" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_times() -> list[int] | None:
    """Aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


def _stolen_s() -> float:
    """CPU seconds the hypervisor has stolen from the machine, over all CPUs."""
    times = _cpu_times()
    if times is None or len(times) < 8:
        return 0.0
    return times[7] / os.sysconf("SC_CLK_TCK")


class Stopwatch:
    """Wall time of a block, and the CPU time the host stole during it.

    The two ranks run in lockstep, so a slice stolen from either CPU
    stalls both: :attr:`seconds` is the wall time minus the stolen
    time, never less than half the wall time (slices stolen from both
    CPUs at once overlap).
    """

    def __enter__(self) -> "Stopwatch":
        self._s0 = _stolen_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        self.stolen = _stolen_s() - self._s0

    @property
    def seconds(self) -> float:
        return self.elapsed - min(self.stolen, self.elapsed / 2)


class Conditions:
    """What a run ran under; ``start()`` before, ``finish()`` after."""

    def __init__(self, workload: str, seed: int, world: int, pinned: int):
        self.workload = workload
        self.seed = seed
        self.world = world
        self.pinned = pinned
        self._t0: list[int] | None = None

    def start(self) -> None:
        self._t0 = _cpu_times()

    def finish(self) -> dict:
        import numpy as np

        cpus = cpu_count()
        blas = loaded_blas_threads()
        steal = None
        t1 = _cpu_times()
        if self._t0 is not None and t1 is not None and len(t1) > 7:
            delta = [b - a for a, b in zip(self._t0, t1)]
            total = sum(delta[:8])  # user..steal; guest is inside user
            steal = delta[7] / total if total > 0 else 0.0
        threads = blas if blas is not None else self.pinned
        oversubscribed = self.world * threads > cpus
        flags = []
        if oversubscribed:
            flags.append(
                f"oversubscribed: {self.world} ranks x {threads} BLAS threads "
                f"on {cpus} CPUs"
            )
        if steal is not None and steal > HIGH_STEAL:
            flags.append(f"high steal: {steal:.1%} of CPU time taken by the host")
        return {
            "workload": self.workload,
            "seed": self.seed,
            "cpus": cpus,
            "world": self.world,
            "ranks_per_cpu": self.world / cpus,
            "blas_threads": blas,
            "blas_threads_pinned": self.pinned,
            "omp_threads": os.environ.get("OMP_NUM_THREADS"),
            "steal_frac": steal,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "flags": flags,
        }
