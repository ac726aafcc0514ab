"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when the output is right).
A problem makes the benchmark report ``correct: false`` and counts the
affected operations as failed.
"""

from __future__ import annotations


def same_curve(reference: list[float], curve: list[float], what: str) -> list[str]:
    """``curve`` must equal ``reference`` bit for bit over ``curve``'s length."""
    if len(curve) > len(reference):
        return [f"{what}: {len(curve)} losses, reference has {len(reference)}"]
    for step, (a, b) in enumerate(zip(reference, curve)):
        if a != b:
            return [f"{what}: loss at step {step} is {b!r}, reference {a!r}"]
    return []


def descends(curve: list[float], what: str) -> list[str]:
    """Training must make progress: the last loss below the first."""
    if len(curve) < 2 or not curve[-1] < curve[0]:
        return [f"{what}: final loss {curve[-1:]} not below first {curve[:1]}"]
    return []


def serve_report(report, reference_losses: list[float], what: str) -> list[str]:
    """A service run: no torn batch, nothing cancelled, every step
    committed, and losses bit-equal to the single-process replay."""
    problems = []
    if report.torn_batches:
        problems.append(f"{what}: {report.torn_batches} torn batches")
    if report.requests_cancelled:
        problems.append(f"{what}: {report.requests_cancelled} requests cancelled")
    if report.interrupted:
        problems.append(f"{what}: run was interrupted")
    if report.steps_done != report.config.train_steps:
        problems.append(
            f"{what}: {report.steps_done} of {report.config.train_steps} steps committed"
        )
    if report.requests_served != report.config.total_requests:
        problems.append(
            f"{what}: served {report.requests_served} of "
            f"{report.config.total_requests} requests"
        )
    if len(report.losses) != len(reference_losses):
        problems.append(
            f"{what}: {len(report.losses)} losses, replay has {len(reference_losses)}"
        )
    problems += same_curve(reference_losses, report.losses, what)
    problems += descends(report.losses, what)
    return problems


def serve_failures(report, reference_losses: list[float]) -> int:
    """Lookup requests and training steps of a service run that failed.

    A torn batch fails at least one request; a step that never
    committed is a failed training step; a loss curve off the replay
    fails every committed step.
    """
    wrong_losses = report.losses != reference_losses or descends(report.losses, "")
    return (
        report.requests_cancelled
        + report.torn_batches
        + max(0, report.config.train_steps - report.steps_done)
        + (report.steps_done if wrong_losses else 0)
    )
