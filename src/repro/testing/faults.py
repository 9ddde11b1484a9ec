"""Deterministic, addressable fault injection for the executor.

Chaos tests need to kill, hang, or fail *exactly one* shard attempt --
"shard 2, attempt 1" -- and have every other part of the run behave
normally. This module provides that: a :class:`FaultSpec` names a fault
kind plus the coordinates it applies to, a set of specs is serialized
into the ``REPRO_FAULTS`` environment variable (JSON), and the shard
worker entry point calls :func:`maybe_inject` before each scenario.
Environment plumbing is what makes this work across process pools:
workers forked (or spawned) by ``ProcessPoolExecutor`` inherit the
parent's environment at pool creation, so a spec installed with
:func:`faults_installed` around ``run_plan_parallel`` reaches every
worker without touching the plan payload.

Fault kinds (:data:`FAULT_KINDS`):

* ``"crash"`` -- die via ``os._exit`` (no cleanup, no exception), the
  closest stand-in for an OOM kill or segfault. Only honoured when the
  caller passes ``allow_crash=True`` (process-pool workers); in thread
  or inline execution it is downgraded to a ``raise`` so a test cannot
  take the host interpreter down.
* ``"raise"`` -- raise :class:`InjectedFault`, a retryable error.
* ``"hang"`` -- sleep ``seconds`` (bounded, default 60), then raise
  :class:`InjectedFault`; simulates a stuck solver for deadline tests
  while guaranteeing the worker eventually terminates.
* ``"slow"`` -- sleep ``seconds``, then continue normally; simulates a
  straggler without failing it.

Selectors (``shard``, ``attempt``, ``position``) are matched exactly
when set and wildcard when ``None``; the first matching spec wins.
Because the injector keeps no state, a wildcard ``slow`` spec fires
before every scenario it matches -- target ``position`` when one delay
per shard is wanted.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from ..errors import ReproError

#: Environment variable the executor's workers read fault specs from.
FAULTS_ENV = "REPRO_FAULTS"

#: The fault kinds :func:`maybe_inject` understands.
FAULT_KINDS = ("crash", "raise", "hang", "slow")

#: Exit status an injected ``crash`` dies with (distinctive on purpose,
#: so a test can tell an injected kill from an accidental one).
CRASH_EXIT_CODE = 23


class InjectedFault(ReproError, RuntimeError):
    """A deliberately injected worker failure.

    Deliberately *not* a :class:`~repro.errors.ConfigurationError`: the
    supervisor classifies configuration errors as non-retryable, while
    injected faults must exercise the retry path.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One addressable fault: what to do, and exactly where.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    shard:
        Shard index the fault targets, or ``None`` for any shard.
    attempt:
        Attempt number (0-based) the fault targets, or ``None`` for
        every attempt -- a persistent fault.
    position:
        Expanded-plan position the fault fires *before*, or ``None``
        for the shard's first scenario. Targeting a later position
        makes the shard fail mid-run, after completing earlier work.
    seconds:
        Sleep duration for ``hang``/``slow`` [s]. Bounded by the spec
        (default 60) so an abandoned worker always terminates.
    message:
        Carried into the :class:`InjectedFault` text.
    """

    kind: str
    shard: "int | None" = None
    attempt: "int | None" = None
    position: "int | None" = None
    seconds: float = 60.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ReproError(
                f"unknown fault kind {self.kind!r}; available: {known}"
            )
        if self.seconds < 0:
            raise ReproError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )

    def matches(self, shard: int, attempt: int, position: int,
                first_position: bool) -> bool:
        """Whether this spec fires at the given worker coordinates."""
        if self.shard is not None and self.shard != shard:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.position is None:
            return first_position
        return self.position == position

    def to_dict(self) -> "dict[str, Any]":
        """JSON-safe record; inverse of :meth:`from_dict`."""
        from ..io import to_record

        return to_record(self)

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "FaultSpec":
        """Rebuild a spec from its JSON record."""
        from ..io import from_record

        return from_record(cls, data)


def encode_faults(specs: "tuple[FaultSpec, ...] | list[FaultSpec]") -> str:
    """Serialize specs to the JSON form :data:`FAULTS_ENV` carries."""
    return json.dumps([spec.to_dict() for spec in specs])


def decode_faults(text: str) -> "tuple[FaultSpec, ...]":
    """Parse the :data:`FAULTS_ENV` JSON back into specs."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"unparseable {FAULTS_ENV} value: {exc}") from exc
    if not isinstance(raw, list):
        raise ReproError(f"{FAULTS_ENV} must hold a JSON list of specs")
    return tuple(FaultSpec.from_dict(item) for item in raw)


def active_faults(
    environ: "Mapping[str, str] | None" = None,
) -> "tuple[FaultSpec, ...]":
    """The specs currently installed in the environment (usually none)."""
    env = os.environ if environ is None else environ
    text = env.get(FAULTS_ENV, "")
    if not text:
        return ()
    return decode_faults(text)


def maybe_inject(
    shard: int,
    attempt: int,
    position: int,
    *,
    first_position: bool = False,
    allow_crash: bool = False,
    environ: "Mapping[str, str] | None" = None,
) -> None:
    """Fire the first installed fault matching these coordinates, if any.

    Called by the shard worker before each scenario. With no faults
    installed this is a single dict lookup -- the production-path cost
    of the harness. ``allow_crash=True`` (process-pool workers only)
    lets a ``crash`` spec actually ``os._exit``; otherwise it degrades
    to raising :class:`InjectedFault` so the host interpreter survives.
    """
    env = os.environ if environ is None else environ
    if not env.get(FAULTS_ENV):
        return
    for spec in active_faults(env):
        if not spec.matches(shard, attempt, position, first_position):
            continue
        where = (
            f"{spec.kind} fault at shard {shard}, attempt {attempt}, "
            f"position {position}: {spec.message}"
        )
        if spec.kind == "crash":
            if allow_crash:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFault(f"(crash downgraded to raise) {where}")
        if spec.kind == "raise":
            raise InjectedFault(where)
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            raise InjectedFault(f"(hang of {spec.seconds}s elapsed) {where}")
        # "slow": delay, then run normally.
        time.sleep(spec.seconds)
        return


@contextmanager
def faults_installed(*specs: FaultSpec) -> Iterator[None]:
    """Install fault specs in ``os.environ`` for the enclosed block.

    The previous :data:`FAULTS_ENV` value is restored on exit, even on
    error. Process pools created *inside* the block inherit the specs;
    pools created before it do not (their workers already forked).
    """
    previous = os.environ.get(FAULTS_ENV)
    os.environ[FAULTS_ENV] = encode_faults(list(specs))
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = previous
