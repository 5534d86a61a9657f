"""Bounded retry with exponential backoff for tier I/O.

Every timed storage operation on the flush, read and replication paths can
be wrapped in :func:`retrying`: transient failures (injected write errors,
device brownouts) are re-attempted up to
``UniviStorConfig.io_retry_limit`` times with exponentially growing
backoff, after which the last error surfaces to the caller.  Hard
modelling errors (bad arguments, capacity bugs) are never retried.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Engine, Event
from repro.storage.device import TransientIOError

__all__ = ["retrying"]


def retrying(engine: Engine, make_event: Callable[[], Event], *,
             limit: int, backoff_base: float,
             on_retry: Optional[Callable[[int, float, BaseException], None]]
             = None) -> Generator:
    """Run ``make_event()`` until it completes, retrying transient errors.

    ``make_event`` is called afresh per attempt (a new flow each time) and
    may raise :class:`TransientIOError` synchronously (injected errors,
    down devices) or return an event to wait on.  ``on_retry(attempt,
    delay, error)`` observes every backoff — the servers feed it into
    telemetry so retries stay auditable.
    """
    if limit < 0:
        raise ValueError(f"retry limit must be >= 0, got {limit}")
    if backoff_base <= 0:
        raise ValueError(f"backoff base must be positive, got {backoff_base}")
    attempt = 0
    while True:
        try:
            event = make_event()
        except TransientIOError as err:
            error = err
        else:
            value = yield event
            return value
        attempt += 1
        if attempt > limit:
            raise error
        delay = backoff_base * (2 ** (attempt - 1))
        if on_retry is not None:
            on_retry(attempt, delay, error)
        yield engine.timeout(delay)
