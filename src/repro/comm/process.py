"""Process-based backend: a persistent worker pool with zero-copy links.

Workers are real OS processes (fork start method).  Two interchangeable
transports move messages between them:

* ``"shm"`` (default) — the framed zero-copy wire protocol: ndarray
  payloads are decomposed by :mod:`repro.comm.frames` into a small
  template plus raw buffers, the buffers travel through pooled
  ``multiprocessing.shared_memory`` segments (:mod:`repro.comm.shm`),
  and only the template goes through the control queue.  Two memcpys
  per frame, independent of payload size.
* ``"queue"`` — the legacy path: whole objects pickled through
  ``multiprocessing.Queue`` (kept as the comparison baseline for
  ``benchmarks/bench_comm_transport.py`` and as a fallback).

Link topology is N inboxes (one control queue per *destination*) with
receiver-side demultiplexing by source, not N² per-pair queues; the
per-link state that is actually expensive — shared-memory segment pools
— is built lazily by the first send that needs it and reused for the
lifetime of the worker.

:class:`ProcessGroup` is context-managed and persistent; open one
through the :func:`repro.comm.open_group` factory::

    with open_group(4, backend="process") as group:
        for step in range(100):
            group.run(train_step, step)   # same workers, warm links

Fork + link setup is paid once at ``start()``; each ``run()`` is a
pickled command dispatch.  Persistent dispatch requires picklable
callables.  The one-shot API (``run_multiprocess`` or ``run()`` on an
unstarted group) keeps the historical semantics: workers are forked at
call time, so closures and other non-picklable callables still work.

``timeout`` bounds every blocking receive/barrier in the workers
(mirroring :class:`~repro.comm.local.ThreadGroup`); the parent's wait
for results is derived from it, so a dead worker surfaces as an error
instead of a parent hang.
"""

from __future__ import annotations

import glob
import itertools
import multiprocessing as mp
import os
import pickle
import queue
import time
from collections import deque
from typing import Any, Callable

import numpy as np

from repro.comm.backend import Communicator
from repro.comm.frames import decode_frames, encode_frames, ndarray_template
from repro.comm.shm import AttachmentCache, SegmentPool
from repro.utils.validation import check_in, check_positive

DEFAULT_TIMEOUT = 120.0

TRANSPORTS = ("shm", "queue")

#: Wire tags on the control queues.  A shared-memory message packs every
#: frame into ONE pooled segment at aligned offsets (one acquire + one
#: ack per message, however many arrays the payload holds):
_SHM_MSG = "s"  # (_SHM_MSG, src, epoch, template, segment | None,
#                 [(offset, nbytes) | None per frame])
_RAW_MSG = "r"  # (_RAW_MSG, src, epoch, obj)

_group_counter = itertools.count()


class _WorkerRuntime:
    """Per-process link state that persists across ``run()`` dispatches.

    Owns the lazily-created sender segment pool, the receiver attachment
    cache, and the inbox/ack queues.  Reused by every communicator the
    worker constructs, so warm segments and attachments amortize across
    runs.
    """

    def __init__(self, rank, world_size, inboxes, acks, transport, owner_tag):
        self.rank = rank
        self.world_size = world_size
        self.inboxes = inboxes  # inboxes[dst]: control queue into rank dst
        self.acks = acks  # acks[src]: recycled segment names back to rank src
        self.transport = transport
        self._owner_tag = owner_tag
        self._pool: SegmentPool | None = None
        self.attachments = AttachmentCache()

    @property
    def pool(self) -> SegmentPool:
        if self._pool is None:
            self._pool = SegmentPool(f"{self._owner_tag}r{self.rank}")
        return self._pool

    def drain_acks(self) -> None:
        """Recycle every segment the peers have finished reading."""
        if self._pool is None:
            return
        while True:
            try:
                self._pool.release(self.acks[self.rank].get_nowait())
            except queue.Empty:
                return

    def segment_names(self) -> list[str]:
        return [] if self._pool is None else list(self._pool.names())

    def close(self, unlink_pool: bool) -> None:
        self.attachments.close()
        if self._pool is not None:
            self._pool.close(unlink=unlink_pool)


class ProcessCommunicator(Communicator):
    """One run's endpoint over a :class:`_WorkerRuntime`.

    Messages are tagged with the run ``epoch``; leftovers from an
    earlier, failed run (including fault-injected delayed deliveries)
    are discarded — and their segments acked — instead of corrupting
    the current run.
    """

    def __init__(self, runtime: _WorkerRuntime, barrier, timeout: float, epoch: int):
        super().__init__(runtime.rank, runtime.world_size)
        self._rt = runtime
        self._barrier = barrier
        self.timeout = timeout
        self._epoch = epoch
        # Messages already received but not yet consumed, per source.
        # Shared-memory payloads are stashed *undecoded* — (template,
        # descriptors) — and only touched when the caller consumes them,
        # so demultiplexing never copies bytes it does not need yet.
        self._stash: list[deque] = [deque() for _ in range(runtime.world_size)]
        # Acks owed for segments whose views are still live (recv_view);
        # flushed once the view has provably been consumed.
        self._pending_acks: list[tuple[int, str]] = []
        # Acks held by recv_view_pinned: survive further communication
        # calls, released only by an explicit release_views().
        self._pinned_acks: list[tuple[int, str]] = []

    # ``_send`` captures payload bytes before returning (shm transport
    # copies into the segment synchronously), so collectives may pass
    # live views of buffers they mutate afterwards.
    @property
    def SEND_SNAPSHOTS(self) -> bool:  # noqa: N802 - constant-style API
        return self._rt.transport == "shm"

    def _send(self, dst: int, obj: Any) -> None:
        rt = self._rt
        if rt.transport == "queue":
            rt.inboxes[dst].put((_RAW_MSG, self.rank, self._epoch, obj))
            return
        rt.drain_acks()
        template, frames = encode_frames(obj)
        try:
            segment, offsets = rt.pool.write_frames(frames)
        except RuntimeError:
            if rt.pool.closed:
                return  # teardown: a delayed (fault-injected) send fired late
            raise
        # The frames are captured; any live recv_view the caller passed
        # in has been consumed, so its segments can go back to the peer.
        self._flush_acks()
        rt.inboxes[dst].put(
            (_SHM_MSG, self.rank, self._epoch, template, segment, offsets)
        )

    def send_sum(self, dst: int, x: Any, y: Any) -> None:
        """Reduce ``x + y`` directly into a pooled segment (zero-copy path).

        The sum never exists in private memory: ``np.add`` writes it
        into the outgoing shared-memory buffer, which is exactly what a
        ring reduce-scatter forwards at every step.
        """
        rt = self._rt
        x, y = np.asarray(x), np.asarray(y)
        if (
            rt.transport != "shm"
            or x.shape != y.shape
            or x.dtype != y.dtype
            or x.size == 0
        ):
            super().send_sum(dst, x, y)
            return
        if dst == self.rank:
            raise ValueError("self-send is not allowed; keep the object local")
        if not 0 <= dst < self.world_size:
            raise ValueError(f"destination {dst} out of range")
        self.bytes_sent += x.nbytes
        self.messages_sent += 1
        obs = self.obs
        t0 = obs.t() if obs.enabled else 0.0
        rt.drain_acks()
        try:
            seg = rt.pool.acquire(x.nbytes)
        except RuntimeError:
            if rt.pool.closed:
                return  # teardown: a delayed (fault-injected) send fired late
            raise
        target = np.frombuffer(seg.buf, dtype=x.dtype, count=x.size)
        np.add(x.reshape(-1), y.reshape(-1), out=target)
        self._flush_acks()  # x (a possible recv_view) is consumed now
        rt.inboxes[dst].put(
            (
                _SHM_MSG,
                self.rank,
                self._epoch,
                ndarray_template(x.dtype, x.shape),
                seg.name,
                [(0, x.nbytes)],
            )
        )
        if obs.enabled:
            obs.count(f"wire_bytes.{x.dtype.name}", x.nbytes)
            obs.rec_phase("send_sum", t0)

    def _recv(self, src: int) -> Any:
        return self._decode_entry(src, self._wait(src), copy=True)

    def _recv_view(self, src: int) -> Any:
        return self._decode_entry(src, self._wait(src), copy=False)

    def _recv_view_pinned(self, src: int) -> Any:
        return self._decode_entry(src, self._wait(src), copy=False, pin=True)

    def release_views(self) -> None:
        if self._pinned_acks:
            self._emit_acks(self._pinned_acks)
            self._pinned_acks.clear()

    def _wait(self, src: int) -> tuple:
        """Block until a current-epoch message from ``src`` is stashed."""
        self._flush_acks()  # any prior recv_view is dead by contract
        stash = self._stash[src]
        if stash:
            return stash.popleft()
        obs = self.obs
        t0 = obs.t() if obs.enabled else 0.0
        deadline = time.monotonic() + self.timeout
        while not stash:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                msg = self._rt.inboxes[self.rank].get(timeout=remaining)
            except queue.Empty:
                break
            self._ingest(msg)
        if obs.enabled:  # blocking portion of the receive: segment wait
            obs.rec_phase("segment_wait", t0)
        if not stash:
            raise TimeoutError(
                f"rank {self.rank}: no message from rank {src} within "
                f"{self.timeout}s (peer dead or deadlocked?)"
            )
        return stash.popleft()

    def _ingest(self, msg: tuple) -> None:
        """Stash one inbox message; stale epochs are acked and dropped."""
        tag, sender, epoch = msg[0], msg[1], msg[2]
        if tag == _RAW_MSG:
            if epoch == self._epoch:
                self._stash[sender].append((_RAW_MSG, msg[3]))
            return
        _, _, _, template, segment, offsets = msg
        if epoch == self._epoch:
            # Lazy: bytes are only touched when the caller consumes them.
            self._stash[sender].append((_SHM_MSG, template, segment, offsets))
            return
        if segment is not None:  # stale — recycle the segment immediately
            self._rt.acks[sender].put(segment)

    def _decode_entry(
        self, src: int, entry: tuple, copy: bool, pin: bool = False
    ) -> Any:
        if entry[0] == _RAW_MSG:
            return entry[1]
        _, template, segment, offsets = entry
        buffers = [
            self._rt.attachments.view(segment, desc[1], desc[0]) if desc else b""
            for desc in offsets
        ]
        payload = decode_frames(template, buffers, copy=copy)
        acks = [(src, segment)] if segment is not None else []
        if copy:
            self._emit_acks(acks)  # bytes owned — recycle right away
        elif pin:
            self._pinned_acks.extend(acks)  # held until release_views()
        else:
            self._pending_acks.extend(acks)  # view live — ack on consume
        return payload

    def _emit_acks(self, acks: list[tuple[int, str]]) -> None:
        for sender, name in acks:
            self._rt.acks[sender].put(name)

    def _flush_acks(self) -> None:
        if self._pending_acks:
            self._emit_acks(self._pending_acks)
            self._pending_acks.clear()

    def barrier(self) -> None:
        self._flush_acks()
        obs = self.obs
        if not obs.enabled:
            self._barrier.wait(timeout=self.timeout)
            return
        t0 = obs.t()
        self._barrier.wait(timeout=self.timeout)
        obs.rec_phase("barrier", t0)

    def transport_counters(self) -> dict[str, float]:
        """Segment-pool and attachment statistics (see :mod:`repro.obs`)."""
        rt = self._rt
        out: dict[str, float] = {"shm.attachments": float(len(rt.attachments))}
        if rt._pool is not None:
            pool = rt._pool
            out["segpool.hits"] = float(pool.hits)
            out["segpool.misses"] = float(pool.misses)
            out["segpool.segments"] = float(len(pool))
            out["segpool.bytes"] = float(pool.pooled_bytes)
        return out


class _STALE:
    """Sentinel: message belonged to a previous run epoch."""


def _service_loop(
    rank,
    world_size,
    inboxes,
    acks,
    barrier,
    timeout,
    transport,
    owner_tag,
    cmd_queue,
    result_queue,
    initial,
    persist,
):
    """Worker main: execute dispatched callables until stopped.

    One-shot mode (``persist=False``) receives its single command via
    ``initial`` — captured at fork, so it needs no pickling — and exits
    after reporting.  Persistent mode loops on ``cmd_queue``.
    """
    runtime = _WorkerRuntime(rank, world_size, inboxes, acks, transport, owner_tag)
    try:
        epoch = 0
        while True:
            if initial is not None:
                fn, args, kwargs = initial
                initial = None
            else:
                cmd = cmd_queue.get()
                if cmd[0] == "stop":
                    return
                _, epoch, blob = cmd
                fn, args, kwargs = pickle.loads(blob)
            comm = ProcessCommunicator(runtime, barrier, timeout, epoch)
            try:
                status, payload = "ok", fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                status, payload = "error", repr(exc)
            comm._flush_acks()  # release any segments held by a recv_view
            comm.release_views()  # ... and any a collective left pinned
            names = runtime.segment_names()
            try:
                blob = pickle.dumps((status, payload, names))
            except Exception as exc:  # result not picklable
                blob = pickle.dumps(
                    ("error", f"result not picklable: {exc!r}", names)
                )
            result_queue.put((epoch, rank, blob))
            if not persist:
                return
    finally:
        # One-shot workers must not unlink: peers may still be reading
        # in-flight segments; the parent unlinks after joining everyone.
        runtime.close(unlink_pool=persist)


class _GroupResources:
    """Queues and barrier shared by the parent and its workers."""

    def __init__(self, ctx, world_size: int, persistent: bool):
        self.inboxes = [ctx.Queue() for _ in range(world_size)]
        self.acks = [ctx.Queue() for _ in range(world_size)]
        self.barrier = ctx.Barrier(world_size)
        self.result_queue = ctx.Queue()
        self.cmd_queues = (
            [ctx.Queue() for _ in range(world_size)] if persistent else None
        )


class ProcessGroup:
    """A group of worker processes executing collectives over real links.

    Use as a context manager (or call :meth:`start` / :meth:`close`) for
    a persistent pool whose fork + link setup amortizes over many
    :meth:`run` calls; calling :meth:`run` on an unstarted group keeps
    the historical one-shot semantics (fresh fork per call, closures
    allowed).
    """

    def __init__(
        self,
        world_size: int,
        timeout: float = DEFAULT_TIMEOUT,
        transport: str = "shm",
    ):
        check_positive("world_size", world_size)
        check_positive("timeout", timeout)
        check_in("transport", transport, set(TRANSPORTS))
        self.world_size = world_size
        self.timeout = timeout
        self.transport = transport
        self._ctx = mp.get_context("fork")
        self._owner_tag = f"{os.getpid()}g{next(_group_counter)}"
        self._res: _GroupResources | None = None
        self._procs: list | None = None
        self._epoch = 0
        self._last_run_failed = False
        self._broken = False
        self._segment_names: set[str] = set()

    # -- persistent lifecycle ------------------------------------------- #
    @property
    def started(self) -> bool:
        return self._procs is not None

    @property
    def broken(self) -> bool:
        """True once a persistent worker has died: the pool cannot run
        again — :meth:`close` it and start a fresh group."""
        return self._broken

    def start(self) -> "ProcessGroup":
        """Fork the persistent worker pool (idempotent)."""
        if self._broken:
            raise RuntimeError("process group is broken (a worker died)")
        if self._procs is not None:
            return self
        self._res = _GroupResources(self._ctx, self.world_size, persistent=True)
        self._procs = [
            self._ctx.Process(
                target=_service_loop,
                args=(
                    r,
                    self.world_size,
                    self._res.inboxes,
                    self._res.acks,
                    self._res.barrier,
                    self.timeout,
                    self.transport,
                    self._owner_tag,
                    self._res.cmd_queues[r],
                    self._res.result_queue,
                    None,
                    True,
                ),
                daemon=True,
            )
            for r in range(self.world_size)
        ]
        for p in self._procs:
            p.start()
        return self

    def close(self) -> None:
        """Stop the workers and release every link resource.

        After an interrupted or failed run (``_last_run_failed``) the
        workers may still be executing the abandoned dispatch and will
        not read the stop command until it finishes — possibly never,
        for a long-lived serve loop.  Waiting the full transport timeout
        per worker would make Ctrl-C teardown take minutes, so a failed
        group gets a short grace before the workers are terminated;
        either way the shm segments are swept afterwards.
        """
        if self._procs is None:
            return
        for q in self._res.cmd_queues:
            try:
                q.put(("stop",))
            except Exception:  # pragma: no cover - queue already torn down
                pass
        grace = 1.0 if self._last_run_failed else self.timeout
        for p in self._procs:
            p.join(timeout=grace)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self._procs = None
        self._res = None
        self._sweep_segments()

    def __enter__(self) -> "ProcessGroup":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------- #
    def run(self, fn: Callable[[Communicator], Any], *args, **kwargs) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; results in
        rank order.  Dispatches to the persistent pool when started,
        otherwise forks a one-shot group."""
        if self._procs is not None:
            return self._run_persistent(fn, args, kwargs)
        return self._run_once(fn, args, kwargs)

    def _run_persistent(self, fn, args, kwargs) -> list[Any]:
        if self._broken:
            raise RuntimeError("process group is broken (a worker died)")
        try:
            blob = pickle.dumps((fn, args, kwargs))
        except Exception as exc:
            raise TypeError(
                "a persistent ProcessGroup dispatches callables through a "
                "queue, so fn/args must be picklable (module-level "
                f"functions, bound methods of picklable objects): {exc!r}"
            ) from exc
        self._epoch += 1
        if self._last_run_failed:
            # A failed run can leave the barrier broken (a rank timed out
            # inside wait); every worker is idle now, so reset is safe.
            try:
                self._res.barrier.reset()
            except Exception:  # pragma: no cover - platform quirks
                pass
        for q in self._res.cmd_queues:
            q.put(("run", self._epoch, blob))
        return self._collect(self._epoch, self._procs)

    def _run_once(self, fn, args, kwargs) -> list[Any]:
        res = _GroupResources(self._ctx, self.world_size, persistent=False)
        procs = [
            self._ctx.Process(
                target=_service_loop,
                args=(
                    r,
                    self.world_size,
                    res.inboxes,
                    res.acks,
                    res.barrier,
                    self.timeout,
                    self.transport,
                    self._owner_tag,
                    None,
                    res.result_queue,
                    (fn, args, kwargs),
                    False,
                ),
                daemon=True,
            )
            for r in range(self.world_size)
        ]
        for p in procs:
            p.start()
        try:
            return self._collect(0, procs, result_queue=res.result_queue)
        finally:
            for p in procs:
                p.join(timeout=self.timeout)
                if p.is_alive():  # pragma: no cover - defensive cleanup
                    p.terminate()
            self._sweep_segments()

    def _collect(self, epoch: int, procs, result_queue=None) -> list[Any]:
        """Gather one result per rank, bounding the wait by the timeout."""
        rq = result_queue if result_queue is not None else self._res.result_queue
        results: list[Any] = [None] * self.world_size
        failures: list[tuple[int, str]] = []
        reported: set[int] = set()
        # Workers abort within `timeout` of a peer failure; 2.5x leaves
        # room for result marshalling (300s at the 120s default).
        deadline = time.monotonic() + 2.5 * self.timeout
        try:
            self._collect_loop(epoch, procs, rq, results, failures, reported, deadline)
        except KeyboardInterrupt:
            # Ctrl-C on the launcher: the workers are still mid-dispatch.
            # Mark the run failed so close() (a) resets the barrier if the
            # pool is reused and (b) terminates busy workers after a short
            # grace instead of the full transport timeout, then sweeps the
            # shm segments — an interrupted serve loop must not leak them.
            self._last_run_failed = True
            raise
        self._last_run_failed = bool(failures)
        if failures:
            # Arrival order: the first reporter is the origin — later
            # failures are usually its victims timing out.
            rank, err = failures[0]
            raise RuntimeError(f"rank {rank} failed: {err}")
        return results

    def _collect_loop(
        self, epoch, procs, rq, results, failures, reported, deadline
    ) -> None:
        while len(reported) < self.world_size:
            remaining = max(0.01, deadline - time.monotonic())
            try:
                msg_epoch, rank, blob = rq.get(timeout=min(remaining, 1.0))
            except queue.Empty:
                missing = sorted(set(range(self.world_size)) - reported)
                dead = [r for r in missing if not procs[r].is_alive()]
                if dead:
                    self._broken = self._procs is not None
                    self._last_run_failed = True
                    raise RuntimeError(
                        f"worker processes for ranks {dead} died without "
                        "reporting a result"
                    ) from None
                if time.monotonic() >= deadline:
                    self._last_run_failed = True
                    raise RuntimeError(
                        f"no result from ranks {missing} within "
                        f"{2.5 * self.timeout:.0f}s (worker dead or deadlocked?)"
                    ) from None
                continue
            if msg_epoch != epoch:  # leftover from an earlier failed run
                continue
            status, payload, names = pickle.loads(blob)
            self._segment_names.update(names)
            reported.add(rank)
            if status == "ok":
                results[rank] = payload
            else:
                failures.append((rank, payload))

    # -- shared-memory hygiene ------------------------------------------ #
    def _sweep_segments(self) -> None:
        """Unlink segments the workers reported (one-shot workers leave
        unlinking to the parent) plus any leaked by crashed workers."""
        from multiprocessing import shared_memory

        from repro.comm.shm import bypass_resource_tracker

        bypass_resource_tracker()
        for name in self._segment_names:
            try:
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover - defensive cleanup
                pass
        self._segment_names.clear()
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):  # crashed workers never report names
            for path in glob.glob(
                os.path.join(shm_dir, f"repro-{self._owner_tag}r*")
            ):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - already gone
                    pass


def run_multiprocess(
    world_size: int,
    fn: Callable[[Communicator], Any],
    *args,
    timeout: float = DEFAULT_TIMEOUT,
    transport: str = "shm",
    **kwargs,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``world_size`` processes; results in rank order."""
    return ProcessGroup(world_size, timeout=timeout, transport=transport).run(
        fn, *args, **kwargs
    )
