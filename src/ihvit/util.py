"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import ConfigError

R = TypeVar("R")


def worker_count() -> int:
    """Worker parallelism cap: IHVIT_THREADS if set, else logical cores."""
    raw = os.environ.get("IHVIT_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"IHVIT_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"IHVIT_THREADS must be >= 1, got {n}")
    return n


def run_all(calls: Sequence[Callable[[], R]]) -> list[R]:
    """Call each of ``calls`` and return their results in order.

    With ``worker_count() > 1`` the calls before the last go to at most
    ``worker_count() - 1`` worker threads while the calling thread runs the
    last one, so put the longest call last.  Otherwise they run one after
    the other.  Every call finishes before an exception from any of them is
    re-raised here.
    """
    calls = list(calls)
    workers = min(worker_count(), len(calls)) - 1
    if workers < 1:
        return [call() for call in calls]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(call) for call in calls[:-1]]
        last = calls[-1]()
        return [f.result() for f in futures] + [last]
