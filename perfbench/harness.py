"""Workload definitions and the calls the benchmark times.

Everything here drives the program through its public entry points --
``open_group``, ``RealTrainer(...).train()`` and
``ShardedEmbeddingService(...).run()`` -- and times them from outside.
:class:`RecordingGroup` wraps a group so the benchmark also sees every
rank's result and payload bytes, not just rank 0's view.
"""

from __future__ import annotations

from dataclasses import dataclass

from conditions import WORLD, Stopwatch
from repro.comm import open_group
from repro.engine.trainer_real import RealTrainer
from repro.models.config import GNMT8, LM
from repro.serve import ServeConfig, ShardedEmbeddingService

MB = 1e6


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` its smoke test."""

    lm_vocab: int = 16384
    lm_dim_divisor: int = 16
    gnmt_vocab: int = 4096
    gnmt_dim_divisor: int = 16
    #: Training steps per timed repetition (fixed, so every repetition
    #: must produce the same loss curve).
    steps: int = 24
    warmup_steps: int = 2
    #: Steps of the other strategy's run whose losses must match.
    cross_steps: int = 3
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    min_reps: int = 3
    serve_vocab: int = 16384
    serve_dim: int = 32
    serve_train_steps: int = 320
    serve_requests_per_client: int = 300
    serve_warmup_steps: int = 4
    serve_warmup_requests: int = 20


FULL = Size()
TINY = Size(
    lm_vocab=512,
    lm_dim_divisor=64,
    gnmt_vocab=256,
    gnmt_dim_divisor=64,
    steps=4,
    setups=1,
    min_reps=2,
    serve_vocab=512,
    serve_train_steps=6,
    serve_requests_per_client=12,
    serve_warmup_steps=2,
    serve_warmup_requests=4,
)


@dataclass(frozen=True)
class Training:
    model: str  # "lm" or "gnmt"
    strategy: str

    def config(self, size: Size):
        if self.model == "lm":
            return LM.scaled(vocab=size.lm_vocab, dim_divisor=size.lm_dim_divisor)
        return GNMT8.scaled(vocab=size.gnmt_vocab, dim_divisor=size.gnmt_dim_divisor)


@dataclass(frozen=True)
class Serving:
    clients: int = 2
    ids_per_request: int = 16
    train_batch: int = 64
    zipf_exponent: float = 1.1

    def config(self, size: Size, seed: int, warmup: bool = False) -> ServeConfig:
        return ServeConfig(
            vocab=size.serve_vocab,
            dim=size.serve_dim,
            world_size=WORLD,
            backend="process",
            transport="shm",
            clients=self.clients,
            requests_per_client=(
                size.serve_warmup_requests
                if warmup
                else size.serve_requests_per_client
            ),
            ids_per_request=self.ids_per_request,
            train_batch=self.train_batch,
            zipf_exponent=self.zipf_exponent,
            train_steps=size.serve_warmup_steps if warmup else size.serve_train_steps,
            seed=seed,
        )


WORKLOADS = {
    "lm-embrace": Training("lm", "embrace"),
    "lm-allgather": Training("lm", "allgather"),
    "gnmt-embrace": Training("gnmt", "embrace"),
    "serve-zipf": Serving(),
}


# --------------------------------------------------------------------- #
# groups
# --------------------------------------------------------------------- #
class _WithBytes:
    """Picklable rank function wrapper: result plus the rank's payload
    bytes sent (``comm.bytes_sent``) during the call."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, comm, *args, **kwargs):
        return self.fn(comm, *args, **kwargs), comm.bytes_sent


class RecordingGroup:
    """A :class:`~repro.comm.CommGroup` that keeps every rank's result.

    Passed as ``group=`` to the trainer and the service, which only
    return rank 0's view; ``last_results`` / ``last_bytes`` hold all
    ranks' results and payload bytes of the most recent run.
    """

    def __init__(self, group):
        self.group = group
        self.last_results: list = []
        self.last_bytes: list[int] = []

    def __getattr__(self, name):
        return getattr(self.group, name)

    def run(self, fn, *args, **kwargs):
        outs = self.group.run(_WithBytes(fn), *args, **kwargs)
        self.last_results = [r for r, _ in outs]
        self.last_bytes = [b for _, b in outs]
        return self.last_results

    def close(self) -> None:
        self.group.close()


def open_pool(world: int = WORLD, trace: bool = False) -> RecordingGroup:
    return RecordingGroup(
        open_group(world, backend="process", transport="shm", trace=trace or None)
    )


# --------------------------------------------------------------------- #
# timed calls
# --------------------------------------------------------------------- #
@dataclass
class TrainRun:
    losses: list[float]
    steps: int
    tokens: int  # global non-padding target tokens
    wire_bytes: int  # rank 0 payload bytes
    elapsed: float  # wall seconds
    seconds: float  # wall seconds the host did not steal (see Stopwatch)
    trace: object = None

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.seconds

    @property
    def wire_mb_per_step(self) -> float:
        return self.wire_bytes / self.steps / MB


def train(group: RecordingGroup, config, strategy: str, seed: int, steps: int,
          trace: bool = False) -> TrainRun:
    """One ``RealTrainer(...).train()`` call, timed from outside."""
    trainer = RealTrainer(
        config,
        strategy=strategy,
        world_size=group.world_size,
        steps=steps,
        seed=seed,
        group=group,
        trace=trace,
    )
    with Stopwatch() as clock:
        result = trainer.train()
    tokens = sum(sum(r.tokens_per_step) for r in group.last_results)
    return TrainRun(
        losses=list(result.losses),
        steps=steps,
        tokens=tokens,
        wire_bytes=result.comm_bytes,
        elapsed=clock.elapsed,
        seconds=clock.seconds,
        trace=result.trace,
    )


@dataclass
class ServeRun:
    report: object
    rank0_bytes: int
    elapsed: float
    seconds: float

    @property
    def tokens_per_s(self) -> float:
        """Row ids looked up per second of the call (lookups x ids each)."""
        r = self.report
        return r.requests_served * r.config.ids_per_request / self.seconds

    @property
    def steps_per_s(self) -> float:
        """Online training steps committed per second of the call."""
        return self.report.steps_done / self.seconds

    @property
    def qps(self) -> float:
        """Lookups per second while the closed-loop clients were active.

        Each client sends its next request as soon as the last one
        returns, so its active time is the sum of its latencies; the
        window ends with the slowest client.  Time the host stole is
        taken out in the same proportion as from the whole call.
        """
        r = self.report
        n = r.config.requests_per_client
        lat = r.latencies_s
        if r.requests_cancelled or len(lat) != n * r.config.clients:
            window = r.wall_time_s  # the per-client split is unknown
        else:
            window = max(sum(lat[i * n:(i + 1) * n]) for i in range(r.config.clients))
        return r.requests_served / (window * self.seconds / self.elapsed)

    @property
    def wire_mb_per_step(self) -> float:
        return self.rank0_bytes / max(1, self.report.steps_done) / MB


def serve(group: RecordingGroup, config: ServeConfig) -> ServeRun:
    """One ``ShardedEmbeddingService(...).run()`` call, timed from outside."""
    with Stopwatch() as clock:
        report = ShardedEmbeddingService(config, group=group).run()
    return ServeRun(report, group.last_bytes[0], clock.elapsed, clock.seconds)
