"""Fault injection & resilience (``repro.faults``).

The paper's synchronous collectives run at the speed of the slowest
rank; production systems treat stragglers, delayed messages, and rank
failures as first-class concerns.  This package makes failure scenarios
*executable* on both of the repository's paths:

* :class:`FaultPlan` — a declarative, seeded, serializable description
  of what goes wrong (stragglers, message delay/drop/reorder, crashes);
* :class:`FaultyCommunicator` — injects the plan into the real backend
  (retransmit-with-backoff survives transient faults; permanent ones
  raise typed :class:`CommFailure` subclasses instead of hanging);
* :func:`expand_with_faults` / :func:`degraded_step_time` — injects the
  same plan into the discrete-event simulator;
* :meth:`repro.engine.trainer_real.RealTrainer.train_resilient` — on a
  :class:`CommFailure`, restores from the latest checkpoint and resumes.
"""

from repro.faults.errors import (
    BarrierBroken,
    CommFailure,
    MessageLost,
    PeerTimeout,
    RankCrashed,
)
from repro.faults.inject import FaultyCommunicator, InjectionStats
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy, retry_with_backoff
from repro.faults.simfaults import (
    apply_duration_hook,
    degraded_step_time,
    expand_with_faults,
    message_fault_penalty,
)

__all__ = [
    "BarrierBroken",
    "CommFailure",
    "FaultPlan",
    "FaultyCommunicator",
    "InjectionStats",
    "MessageLost",
    "PeerTimeout",
    "RankCrashed",
    "RetryPolicy",
    "apply_duration_hook",
    "degraded_step_time",
    "expand_with_faults",
    "message_fault_penalty",
    "retry_with_backoff",
]
