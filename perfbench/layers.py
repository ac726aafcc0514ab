"""The traced pass: per-layer metrics of one workload.

Layer numbers come from two sources, both outside the program:

* the program's own ``repro.obs`` trace of one traced call
  (``RealTrainer(trace=True)`` / a traced group for the service): spans
  on rank 0's compute and comm lanes, transport phases, and counters;
* direct timed calls into a layer's public functions: the data stream,
  a single-process ``forward_backward`` and optimizer step, and the
  EmbRace runtime's ``split`` / ``apply_part`` / ``refresh_rows`` run
  over the workload's group on its real gradients.

:func:`partition` splits rank 0's traced step into rows that add up to
it exactly: time under a compute span, else time under a collective
(exposed comm), else ``uncovered`` -- rank 0 on neither lane.  The pass
does a fixed amount of work, whatever ``--seconds`` says.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

import checks
from conditions import WORLD
from endtoend import Outcome
from harness import MB, Size, Training, open_pool, serve, train
from repro.data import Prefetcher
from repro.engine.embrace_runtime import EmbraceTableRuntime
from repro.engine.workload import batch_stream
from repro.models.registry import build_model
from repro.optim import EmbraceAdam
from repro.serve import offline_reference

GPU = "rtx3090"  # the trainer's default batch sizing
COMM_OPS = (
    "allreduce",
    "alltoall_column_shards",
    "alltoall",
    "allgather",
    "allreduce_sparse_adaptive",
    "broadcast",
)
WIRE_COUNTERS = (
    "alltoall_sparse",
    "float64",
    "float32",
    "int64",
    "other",
    "lookup",
    "hot_lane",
    "serve_lookup",
    "table.embedding",
    "table.softmax_embedding",
    "table.encoder_embedding",
    "table.decoder_embedding",
)
#: Iterations of the launcher-side probes.
PROBE_BATCHES = 40
PROBE_STEPS = 6
#: Untraced service runs pooled for the latency percentiles (enough
#: lookups that ten or more fall beyond p99).
SERVE_REPS = 2
UNCOVERED = "uncovered"


# --------------------------------------------------------------------- #
# trace analysis
# --------------------------------------------------------------------- #
def rank_entries(trace, rank: int = 0) -> tuple[list, list, list]:
    """Rank ``rank``'s (compute, comm, transport-phase) span entries."""
    compute, comm, phase = [], [], []
    for e in trace.entries:
        lane, _, r = e.resource.rpartition(":")
        if r != str(rank):
            continue
        if lane == "comm":
            comm.append(e)
        elif lane == "comm.phase":
            phase.append(e)
        elif e.kind == "compute":
            compute.append(e)
    return compute, comm, phase


def partition(compute: list, comm: list) -> tuple[dict[str, float], float]:
    """Split the window the spans cover into exclusive rows (seconds).

    Each instant goes to the compute span covering it, else to the
    collective covering it (``"<op> (exposed)"``), else to
    ``uncovered``; among overlapping spans of one kind the earliest
    started wins.  The rows add up to the window exactly.
    """
    spans = [(0, e.start, e.name, e.end) for e in compute]
    spans += [(1, e.start, f"{e.name} (exposed)", e.end) for e in comm]
    if not spans:
        return {}, 0.0
    start = min(sp[1] for sp in spans)
    end = max(sp[3] for sp in spans)
    events = sorted(
        [(sp[1], 1, sp[:3]) for sp in spans] + [(sp[3], -1, sp[:3]) for sp in spans],
        key=lambda ev: ev[0],
    )
    rows: dict[str, float] = {UNCOVERED: 0.0}
    active: dict[tuple, int] = {}
    last = start
    for t, delta, key in events:
        if t > last:
            live = [k for k, n in active.items() if n > 0]
            row = min(live)[2] if live else UNCOVERED
            rows[row] = rows.get(row, 0.0) + (t - last)
            last = t
        active[key] = active.get(key, 0) + delta
    return rows, end - start


def _busy(entries, name: str) -> tuple[float, int]:
    """Total seconds and count of spans called ``name``."""
    durations = [e.end - e.start for e in entries if e.name == name]
    return float(sum(durations)), len(durations)


def trace_metrics(bundle, steps: int) -> tuple[dict[str, float], dict[str, float], float]:
    """Metrics every traced workload shares, plus the step partition."""
    compute, comm, phase = rank_entries(bundle.trace)
    rows, window = partition(compute, comm)
    per_step = 1e3 / steps
    m: dict[str, float] = {
        "step.ms": window * per_step,
        "step.compute_ms": sum(v for k, v in rows.items() if _is_compute(k)) * per_step,
        "step.comm_exposed_ms": sum(
            v for k, v in rows.items() if k.endswith("(exposed)")
        ) * per_step,
        "step.uncovered_ms": rows[UNCOVERED] * per_step,
        "sched.stall_frac": bundle.computation_stall(0) / bundle.trace.makespan,
    }
    for op in COMM_OPS:
        busy, calls = _busy(comm, op)
        m[f"comm.{op}.ms_per_step"] = busy * per_step
        m[f"comm.{op}.calls_per_step"] = calls / steps
    for phase_name, key in (("send", "send_ms"), ("recv", "recv_ms"),
                            ("segment_wait", "segment_wait_ms")):
        m[f"transport.{key}"] = _busy(phase, phase_name)[0] * per_step
    m["transport.messages_per_step"] = _busy(phase, "send")[1] / steps
    counters = bundle.counters.get(0, {})
    m["transport.segpool_hit_ratio"] = _ratio(counters, "segpool")
    m["transport.arena_hit_ratio"] = _ratio(counters, "arena")
    for name in WIRE_COUNTERS:
        m[f"wire.{name}.mb_per_step"] = counters.get(f"wire_bytes.{name}", 0.0) / MB / steps
    return m, {k: v * per_step for k, v in rows.items()}, window * per_step


def _is_compute(row: str) -> bool:
    return row != UNCOVERED and not row.endswith("(exposed)")


def _ratio(counters: dict, prefix: str) -> float:
    """Hit ratio of a buffer pool; 0 when the pool saw no traffic."""
    hits = counters.get(f"{prefix}.hits", 0.0)
    total = hits + counters.get(f"{prefix}.misses", 0.0)
    return hits / total if total else 0.0


def render_rows(title: str, rows: dict[str, float], step_ms: float) -> list[str]:
    lines = [title, f"  {'row':<40} {'ms/step':>10} {'share':>8}"]
    for label, ms in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:<40} {ms:>10.3f} {ms / step_ms:>8.1%}")
    lines.append(f"  {'rank-0 step':<40} {step_ms:>10.3f} {sum(rows.values()) / step_ms:>8.1%}")
    return lines


# --------------------------------------------------------------------- #
# direct probes
# --------------------------------------------------------------------- #
def table_ids(model, name: str, batch) -> np.ndarray:
    """Rows of table ``name`` a batch reads, as the trainer derives them
    (the full-softmax output table reads every row)."""
    if name == "softmax_embedding":
        head = getattr(model, "loss_head", None)
        if head is not None and head.num_sampled is None:
            return np.arange(model.softmax_embedding.num_embeddings)
        return np.unique(batch.targets[batch.targets != 0])
    return batch.token_ids[name]


def probe_data(config, seed: int) -> float:
    """Mean ms of one ``next()`` on the workload's batch stream."""
    stream = batch_stream(config, GPU, seed=seed + 1)
    next(stream)
    t0 = time.perf_counter()
    for _ in range(PROBE_BATCHES):
        next(stream)
    return (time.perf_counter() - t0) / PROBE_BATCHES * 1e3


def probe_compute(config, strategy: str, seed: int) -> tuple[float, float]:
    """Median ms of ``forward_backward`` and of the optimizer step, alone
    in this process (no rank process running), on the workload's own
    batches."""
    model = build_model(config, rng=np.random.default_rng(seed))
    model.train()
    optimizer = EmbraceAdam(model.parameters(), lr=1e-3)
    stream = batch_stream(config, GPU, seed=seed + 1)
    fwd_bwd, step = [], []
    for _ in range(PROBE_STEPS + 1):
        batch = next(stream)
        t0 = time.perf_counter()
        model.forward_backward(batch)
        t1 = time.perf_counter()
        if strategy == "embrace":  # tables are updated by their shards
            for table in model.embedding_tables().values():
                table.weight.grad = None
        optimizer.step()
        t2 = time.perf_counter()
        model.zero_grad()
        fwd_bwd.append(t1 - t0)
        step.append(t2 - t1)
    return float(np.median(fwd_bwd[1:]) * 1e3), float(np.median(step[1:]) * 1e3)


def embrace_probe(comm, config, seed: int, steps: int) -> dict[str, float]:
    """Rank function: time the EmbRace runtime's phases on real gradients.

    Per step and summed over tables: Algorithm 1's ``split``, the two
    ``apply_part`` shard updates, and ``refresh_rows`` (entered after a
    barrier so it times the lookup exchange, not peer skew).  The
    exchanges between them are not timed.  Medians skip the first step.
    """
    model = build_model(config, rng=np.random.default_rng(seed))
    model.train()
    tables = model.embedding_tables()
    runtimes = {name: EmbraceTableRuntime(comm, t, lr=1e-3) for name, t in tables.items()}
    stream = Prefetcher(batch_stream(config, GPU, seed=seed + 1 + comm.rank))
    scale = 1.0 / comm.world_size
    split, apply, refresh = [], [], []
    prior_rows = total_rows = 0
    for _ in range(steps):
        batch, upcoming = next(stream), stream.peek()
        model.forward_backward(batch)
        gathered = comm.allgather({n: table_ids(model, n, upcoming) for n in tables})
        t_split = t_apply = t_refresh = 0.0
        for name, table in tables.items():
            rt = runtimes[name]
            next_ids = [g[name] for g in gathered]
            t0 = time.perf_counter()
            prior, delayed = rt.split(
                table.weight.grad, table_ids(model, name, batch), np.concatenate(next_ids)
            )
            t_split += time.perf_counter() - t0
            shards = [rt.exchange(comm, part, scale) for part in (prior, delayed)]
            t0 = time.perf_counter()
            rt.apply_part(shards[0], final=False)
            rt.apply_part(shards[1], final=True)
            t_apply += time.perf_counter() - t0
            comm.barrier()
            t0 = time.perf_counter()
            rt.refresh_rows(next_ids[comm.rank], all_ids=next_ids)
            t_refresh += time.perf_counter() - t0
            prior_rows += prior.nnz_rows
            total_rows += prior.nnz_rows + delayed.nnz_rows
        model.zero_grad()
        split.append(t_split)
        apply.append(t_apply)
        refresh.append(t_refresh)
    return {
        "embrace.split_ms": float(np.median(split[1:]) * 1e3),
        "embrace.apply_ms": float(np.median(apply[1:]) * 1e3),
        "embrace.refresh_ms": float(np.median(refresh[1:]) * 1e3),
        "embrace.prior_row_frac": prior_rows / max(1, total_rows),
    }


# --------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------- #
_ZERO_TRAINING = (
    "data.batch_ms", "nn.fwd_bwd_ms", "nn.fwd_bwd_alone_ms", "nn.contention",
    "optim.step_ms", "optim.step_alone_ms", "embrace.split_ms", "embrace.apply_ms",
    "embrace.refresh_ms", "embrace.prior_row_frac", "scaling.lm_w1_tokens_per_s",
    "scaling.efficiency", "ratio.embrace_over_allgather.tokens_per_s",
    "ratio.embrace_over_allgather.wire_mb_per_step",
)
_ZERO_SERVING = (
    "serve.batch_ms", "serve.requests_per_batch", "serve.broadcast_ms_per_op",
    "serve.online_step_ms", "serve.commit_ms", "serve.online_steps_per_s",
    "serve.lookup_mb_per_batch",
    "serve.qps", "serve.p50_ms", "serve.p99_ms",
)


def measure_training(spec: Training, name: str, seed: int, size: Size) -> Outcome:
    config, steps = spec.config(size), size.steps
    other = "allgather" if spec.strategy == "embrace" else "embrace"
    lm = spec.model == "lm"
    pool = open_pool()
    try:
        warm = train(pool, config, spec.strategy, seed, size.warmup_steps)
        plain = train(pool, config, spec.strategy, seed, steps)
        traced = train(pool, config, spec.strategy, seed, steps, trace=True)
        cross = train(pool, config, other, seed, steps if lm else size.cross_steps)
        probe = pool.run(embrace_probe, config, seed, PROBE_STEPS)[0]
    finally:
        pool.close()
    single = None
    if lm:
        pool = open_pool(world=1)
        try:
            train(pool, config, spec.strategy, seed, size.warmup_steps)
            single = train(pool, config, spec.strategy, seed, steps)
        finally:
            pool.close()
    fwd_bwd_alone, optim_alone = probe_compute(config, spec.strategy, seed)

    problems = checks.same_curve(plain.losses, warm.losses, "warm-up")
    problems += checks.same_curve(plain.losses, traced.losses, "traced run")
    problems += checks.same_curve(plain.losses, cross.losses, f"{other} cross-check")
    problems += checks.descends(plain.losses, "untraced run")
    runs = [warm, plain, traced, cross]
    if lm:
        problems += checks.descends(single.losses, "world-1 run")
        runs.append(single)
    attempted = sum(r.steps for r in runs)
    failed = sum(r.steps for r in runs) if problems else 0

    m, rows, step_ms = trace_metrics(traced.trace, steps)
    compute, _, _ = rank_entries(traced.trace.trace)
    fwd_bwd_ms = _busy(compute, "fwd_bwd")[0] * 1e3 / steps
    # On LM the cross run has the same steps, seed and data: a
    # like-for-like pair for the EmbRace / AllGather ratios.
    embrace, allgather = (plain, cross) if spec.strategy == "embrace" else (cross, plain)
    m.update(probe)
    m.update({
        "data.batch_ms": probe_data(config, seed),
        "nn.fwd_bwd_ms": fwd_bwd_ms,
        "nn.fwd_bwd_alone_ms": fwd_bwd_alone,
        "nn.contention": fwd_bwd_ms / fwd_bwd_alone,
        "optim.step_ms": _busy(compute, "optimizer")[0] * 1e3 / steps,
        "optim.step_alone_ms": optim_alone,
        "obs.trace_overhead": plain.tokens_per_s / traced.tokens_per_s,
        "scaling.lm_w1_tokens_per_s": single.tokens_per_s if lm else 0.0,
        "scaling.efficiency": (
            plain.tokens_per_s / (WORLD * single.tokens_per_s) if lm else 0.0
        ),
        "ratio.embrace_over_allgather.tokens_per_s": (
            embrace.tokens_per_s / allgather.tokens_per_s if lm else 0.0
        ),
        "ratio.embrace_over_allgather.wire_mb_per_step": (
            embrace.wire_mb_per_step / allgather.wire_mb_per_step if lm else 0.0
        ),
    })
    m.update(dict.fromkeys(_ZERO_SERVING, 0.0))

    lines = render_rows(
        f"{name}: rank-0 step over {steps} traced steps "
        f"(untraced {plain.tokens_per_s:.1f} tok/s, traced {traced.tokens_per_s:.1f})",
        rows,
        step_ms,
    )
    lines.append(
        f"  probes: embrace split {m['embrace.split_ms']:.3f} + apply "
        f"{m['embrace.apply_ms']:.3f} + refresh {m['embrace.refresh_ms']:.3f} ms/step; "
        f"fwd_bwd alone {fwd_bwd_alone:.3f} ms (x{m['nn.contention']:.2f} in the run)"
    )
    if lm:
        lines.append(
            f"  embrace/allgather (not gated): tokens_per_s x"
            f"{m['ratio.embrace_over_allgather.tokens_per_s']:.3f}, wire_mb_per_step x"
            f"{m['ratio.embrace_over_allgather.wire_mb_per_step']:.3f}; world-1 "
            f"{single.tokens_per_s:.1f} tok/s, scaling efficiency "
            f"{m['scaling.efficiency']:.3f}"
        )
    return Outcome(m, attempted, failed, problems, lines)


def measure_serving(spec, name: str, seed: int, size: Size) -> Outcome:
    config = spec.config(size, seed)
    warm_config = spec.config(size, seed, warmup=True)
    reference = offline_reference(config)[0]
    runs = []
    for trace, reps in ((False, SERVE_REPS), (True, 1)):
        pool = open_pool(trace=trace)
        try:
            serve(pool, warm_config)
            runs.append([serve(pool, config) for _ in range(reps)])
        finally:
            pool.close()
    plain, (traced,) = runs

    problems = []
    attempted = failed = 0
    for i, run in enumerate(plain + [traced]):
        what = "traced run" if run is traced else f"untraced run {i}"
        problems += checks.serve_report(run.report, reference, what)
        attempted += config.total_requests + config.train_steps
        failed += checks.serve_failures(run.report, reference)

    report = traced.report
    steps = max(1, report.steps_done)
    m, rows, step_ms = trace_metrics(report.trace, steps)
    compute, comm, _ = rank_entries(report.trace.trace)
    latencies = np.concatenate([r.report.latencies_s for r in plain]) * 1e3
    plain_ids_per_s = median(r.tokens_per_s for r in plain)
    broadcast, ops = _busy(comm, "broadcast")
    counters = report.trace.counters.get(0, {})
    m.update(dict.fromkeys(_ZERO_TRAINING, 0.0))
    m.update({
        "serve.batch_ms": _mean_span(compute, "serve_batch"),
        "serve.requests_per_batch": report.requests_served / max(1, report.batches),
        "serve.broadcast_ms_per_op": broadcast * 1e3 / max(1, ops),
        "serve.online_step_ms": _mean_span(compute, "online_step"),
        "serve.commit_ms": _mean_span(compute, "commit_step"),
        "serve.online_steps_per_s": median(r.steps_per_s for r in plain),
        "serve.lookup_mb_per_batch": (
            counters.get("wire_bytes.serve_lookup", 0.0) / MB / max(1, report.batches)
        ),
        "serve.qps": median(r.qps for r in plain),
        "serve.p50_ms": float(np.percentile(latencies, 50)),
        "serve.p99_ms": float(np.percentile(latencies, 99)),
        "obs.trace_overhead": plain_ids_per_s / traced.tokens_per_s,
    })
    lines = render_rows(
        f"{name}: rank-0 time per committed online step over {steps} steps "
        f"(untraced {m['serve.qps']:.1f} QPS, p50 {m['serve.p50_ms']:.3f} ms, "
        f"p99 {m['serve.p99_ms']:.3f} ms over {latencies.size} lookups)",
        rows,
        step_ms,
    )
    return Outcome(m, attempted, failed, problems, lines)


def _mean_span(entries, name: str) -> float:
    busy, count = _busy(entries, name)
    return busy * 1e3 / count if count else 0.0


def measure(spec, name: str, seed: int, size: Size) -> Outcome:
    if isinstance(spec, Training):
        return measure_training(spec, name, seed, size)
    return measure_serving(spec, name, seed, size)
