"""Small shared helpers."""

from __future__ import annotations

import json
import math
import operator
import os
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ConfigError

R = TypeVar("R")


def worker_count() -> int:
    """Worker parallelism cap: IHVIT_THREADS if set, else the cores this
    process may run on (its affinity set where the platform has one)."""
    raw = os.environ.get("IHVIT_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"IHVIT_THREADS must be an integer, got {raw!r:.60}") from None
    if n < 1:
        raise ConfigError(f"IHVIT_THREADS must be >= 1, got {raw.strip():.60}")
    return n


def run_all(calls: Sequence[Callable[[], R]],
            then: Sequence[Callable[[], object] | None] | None = None) -> list[R]:
    """Call each of ``calls`` and return their results in order.

    ``then``, if given, holds a follow-up call (or None) per call:
    ``then[i]`` runs once ``calls[i]`` has returned, and its result is
    dropped.  The work sits on one queue, which starts with every call but
    the last; a call that returns puts its follow-up at the back.  The
    calling thread runs the last call first while up to
    ``worker_count() - 1`` workers start on the queue, and then every
    thread, the caller included, takes the task at its front: the next
    call that has not started or, once none is left, the first follow-up
    whose call has returned.  So of two calls the first runs on a worker
    and the last on the caller, and with more, short calls placed last
    keep the tail short.  With one thread the caller runs the same
    schedule alone.  Every call and follow-up runs, even after one has
    failed, except the follow-up of a failed call; then the first
    exception in call order is re-raised.
    """
    calls = list(calls)
    threads = min(worker_count(), len(calls))
    if not calls:
        return []
    then = [None] * len(calls) if then is None else list(then)
    results: list = [None] * len(calls)
    errors: list[BaseException | None] = [None] * len(calls)

    def run(i: int) -> None:
        try:
            results[i] = calls[i]()
        except BaseException as e:  # re-raised once every call has run
            errors[i] = e
        else:
            if then[i] is not None:
                tasks.append(partial(follow, i))

    def follow(i: int) -> None:
        try:
            then[i]()
        except BaseException as e:
            errors[i] = e

    # a deque's append and popleft are atomic, so the threads share it unlocked
    tasks = deque(partial(run, i) for i in range(len(calls) - 1))

    def share() -> None:
        while True:
            try:
                task = tasks.popleft()
            except IndexError:
                return
            task()

    with ThreadPoolExecutor(max_workers=threads) as pool:  # >= 1; only submits start workers
        for _ in range(threads - 1):
            pool.submit(share)
        run(len(calls) - 1)
        share()
    for e in errors:
        if e is not None:
            raise e
    return results


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` so that it holds either the old or the new file.

    The bytes go to a temporary file in the target's directory, which then
    replaces ``path`` in one ``os.replace``.  If writing fails, the
    temporary file is removed and ``path`` is left as it was.  There is no
    fsync: this guards against a crash of the program, not of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json_object(data: bytes, what: str, error: type[Exception], **at) -> dict:
    """The JSON object that ``data`` holds as UTF-8 text.  Bytes that are
    not UTF-8, malformed JSON, an integer longer than ``int`` reads (4,300
    digits), nesting deeper than the parser's recursion limit and any other
    JSON value raise ``error(message, **at)``, the message naming ``what``;
    ``at`` is, say, a checkpoint header's offset."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise error(f"{what} is not UTF-8: {e}", **at) from None
    except ValueError as e:  # a JSONDecodeError, or an integer too long to read
        raise error(f"{what} is not valid JSON: {e}", **at) from None
    except RecursionError:
        raise error(f"{what} is nested too deeply to parse", **at) from None
    if not isinstance(obj, dict):
        raise error(f"{what} is not a JSON object", **at)
    return obj


def _build(cls, values, where: str):
    """``cls(**values)`` for the dataclass ``cls``; ``ConfigError`` names
    ``where`` if ``values`` is not a dict, or its first key that names no
    field of ``cls``, cut to 60 characters."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where} must be an object, got {values!r:.60}")
    names = {f.name for f in fields(cls)}
    for key in values:
        if key not in names:
            raise ConfigError(f"{where} has unknown key {key!r:.60}")
    return cls(**values)


# what a field may declare of a number: bound -> (symbol, test the number must pass)
_BOUNDS = {"min": (">=", operator.ge), "above": (">", operator.gt),
           "max": ("<=", operator.le)}


def bounded(default, **domain):
    """A dataclass field with ``default`` whose value :func:`check_fields`
    reads in the shape of ``default`` and checks against ``domain``: ``min``
    (inclusive) or ``above``, and ``max`` (inclusive), for numbers, ``among``
    (the names allowed) for names."""
    if isinstance(default, dict):
        return field(default_factory=partial(dict, default), metadata=domain)
    return field(default=default, metadata=domain)


def _decode(v, default, leaves: list):
    """``v`` in the shape of ``default``, its scalars appended to ``leaves``:
    for a dict default a dict, whose values are the scalars; for a tuple
    default a list or tuple, as a tuple of items each decoded like
    ``default[0]``; for a scalar default ``v`` itself, whatever it is.  A
    value that is not the container its default is raises ``TypeError``."""
    if isinstance(default, dict) and isinstance(v, dict):
        leaves.extend(v.values())
        return dict(v)
    if isinstance(default, tuple) and isinstance(v, (list, tuple)):
        return tuple(_decode(x, default[0], leaves) for x in v)
    if isinstance(default, (dict, tuple)):
        raise TypeError
    leaves.append(v)
    return v


def check_fields(cfg) -> None:
    """Read each :func:`bounded` field of the dataclass ``cfg`` in the shape
    of its default (a list as a tuple, to the default's depth), and raise
    ``ConfigError`` where it holds a value of another shape or outside its
    domain, naming the field, the domain and the value cut to 60 characters.

    A field declaring ``among`` takes only those names.  A field whose
    default holds ints takes ints only: JSON has one number type, so ``1.5``
    or ``true`` can reach a count or a size.  Other fields take ints and
    floats (and None where that is the default), finite and within bounds.
    """
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if not f.metadata or (v is None and f.default is None):
            continue
        default = f.default if f.default_factory is MISSING else f.default_factory()
        one = not isinstance(default, (tuple, dict))
        defaults, leaves = [], []
        _decode(default, default, defaults)
        try:
            v = _decode(v, default, leaves)
        except TypeError:
            shape = ("an object" if isinstance(default, dict) else
                     "a list of lists" if isinstance(default[0], tuple) else "a list")
            raise ConfigError(f"{type(cfg).__name__}.{f.name} must be {shape}, "
                              f"got {v!r:.60}") from None
        object.__setattr__(cfg, f.name, v)  # a frozen dataclass too
        among = f.metadata.get("among")
        integral = all(type(d) is int for d in defaults)
        for x in leaves:
            if among is not None:
                if x in among:
                    continue
                must = f"be one of {among}" if one else f"hold only names in {among}"
            elif integral and type(x) is not int:  # bool subclasses int
                must = "be an integer" if one else "hold only integers"
            elif type(x) is bool or not isinstance(x, (int, float)):
                must = "be a number" if one else "hold only numbers"
            elif isinstance(x, float) and not math.isfinite(x):  # an int is finite
                must = "be finite" if one else "hold only finite numbers"
            elif not all(_BOUNDS[k][1](x, b) for k, b in f.metadata.items()):
                domain = " and ".join(f"{_BOUNDS[k][0]} {b}" for k, b in f.metadata.items())
                must = f"be {domain}" if one else f"hold only numbers {domain}"
            else:
                continue
            raise ConfigError(f"{type(cfg).__name__}.{f.name} must {must}, got {v!r:.60}")
