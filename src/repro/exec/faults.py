"""Deterministic fault injection for the campaign execution stack.

Chaos engineering needs two halves: mechanisms that self-heal, and a way
to *prove* they do.  This module is the proving half -- a seeded,
serializable :class:`FaultPlan` describing exactly which failures to
inject at which **named sites** threaded through the execution stack, and
the :class:`FaultInjector` that fires them at runtime.  Because rules
trigger on deterministic hit counts (``after`` / ``times``) rather than
wall clocks, the same plan reproduces the same failure schedule on every
run -- chaos tests can assert bit-identical recovery
(``tests/exec/test_chaos.py``, ``docs/robustness.md``).

Sites and the actions each one interprets:

=====================  =========================================================
site                   actions
=====================  =========================================================
``worker.poll``        ``defer`` (sit the poll out until a beacon fills)
``worker.batch``       ``kill`` (``os._exit`` holding the claim), ``delay``
``worker.trial``       ``kill``, ``delay`` -- fired between trials of a batch
``queue.claim``        ``backdate`` (claim-steal: lease looks expired), ``delay``
``queue.publish``      ``torn`` (corrupted result file), ``oserror``, ``delay``
``journal.append``     ``corrupt`` (scrambled record), ``torn`` (half a record)
``transport.spawn``    ``oserror`` (worker launch fails), ``delay``
``transport.probe``    ``down`` (health probe reports the worker dead), ``delay``
``sink.connect``       ``oserror`` (telemetry connect refused), ``delay``
``sink.write``         ``oserror`` (telemetry send fails mid-stream), ``delay``
=====================  =========================================================

A rule with a ``beacon`` file marks it each time it fires (before acting,
so a ``kill`` still leaves its mark); a ``defer`` rule reads the beacon
instead and keeps its worker off the queue until the faults it waits for
have fired in other processes.  That makes a fault on one worker certain
to fire even when a healthy peer could otherwise drain the queue first.

Plans cross process boundaries as JSON (``repro.cli worker --fault-plan``
or the ``REPRO_FAULT_PLAN`` environment variable), so externally launched
workers and dispatchers can run under one scripted failure schedule.
Production code never constructs an injector; every site is a no-op until
:func:`install` is called.
"""

from __future__ import annotations

import json
import os
import random
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# ------------------------------------------------------------------ site names
SITE_WORKER_POLL = "worker.poll"
SITE_WORKER_BATCH = "worker.batch"
SITE_WORKER_TRIAL = "worker.trial"
SITE_QUEUE_CLAIM = "queue.claim"
SITE_QUEUE_PUBLISH = "queue.publish"
SITE_JOURNAL_APPEND = "journal.append"
SITE_TRANSPORT_SPAWN = "transport.spawn"
SITE_TRANSPORT_PROBE = "transport.probe"
SITE_SINK_CONNECT = "sink.connect"
SITE_SINK_WRITE = "sink.write"

SITES = frozenset({
    SITE_WORKER_POLL,
    SITE_WORKER_BATCH,
    SITE_WORKER_TRIAL,
    SITE_QUEUE_CLAIM,
    SITE_QUEUE_PUBLISH,
    SITE_JOURNAL_APPEND,
    SITE_TRANSPORT_SPAWN,
    SITE_TRANSPORT_PROBE,
    SITE_SINK_CONNECT,
    SITE_SINK_WRITE,
})

# ------------------------------------------------------------------- actions
ACTION_KILL = "kill"
ACTION_DELAY = "delay"
ACTION_BACKDATE = "backdate"
ACTION_TORN = "torn"
ACTION_CORRUPT = "corrupt"
ACTION_OSERROR = "oserror"
ACTION_DOWN = "down"
ACTION_DEFER = "defer"

#: actions each site knows how to interpret (validated at plan build time,
#: so a typo'd plan fails fast instead of silently never firing).
ACTIONS_BY_SITE: Dict[str, frozenset] = {
    SITE_WORKER_POLL: frozenset({ACTION_DEFER}),
    SITE_WORKER_BATCH: frozenset({ACTION_KILL, ACTION_DELAY}),
    SITE_WORKER_TRIAL: frozenset({ACTION_KILL, ACTION_DELAY}),
    SITE_QUEUE_CLAIM: frozenset({ACTION_BACKDATE, ACTION_DELAY}),
    SITE_QUEUE_PUBLISH: frozenset({ACTION_TORN, ACTION_OSERROR, ACTION_DELAY}),
    SITE_JOURNAL_APPEND: frozenset({ACTION_CORRUPT, ACTION_TORN}),
    SITE_TRANSPORT_SPAWN: frozenset({ACTION_OSERROR, ACTION_DELAY}),
    SITE_TRANSPORT_PROBE: frozenset({ACTION_DOWN, ACTION_DELAY}),
    SITE_SINK_CONNECT: frozenset({ACTION_OSERROR, ACTION_DELAY}),
    SITE_SINK_WRITE: frozenset({ACTION_OSERROR, ACTION_DELAY}),
}

#: exit status used by the ``kill`` action -- matches SIGKILL's 128+9 so
#: supervisors treat an injected kill exactly like the real thing.
KILL_EXIT_CODE = 137

#: environment variable holding a fault-plan JSON file path; honored by
#: ``repro.cli`` so chaos CI jobs can inject dispatcher-side faults.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

PLAN_VERSION = 1


class InjectedError(OSError):
    """The transient ``OSError`` raised by the ``oserror`` action.

    A subclass of :class:`OSError` on purpose: recovery paths must treat
    it exactly like a real filesystem error, retries and all.
    """


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: fire ``action`` at ``site`` on selected hits.

    Attributes:
        site: injection-site name (one of :data:`SITES`).
        action: what to do there (see :data:`ACTIONS_BY_SITE`).
        after: skip this many qualifying hits before firing.
        times: fire on this many hits once armed (``0`` = every later hit).
        arg: action parameter (``delay`` seconds; for ``defer``, the
            beacon marks to wait for, default 1; ignored elsewhere).
        match: context equality filters -- the rule only counts hits whose
            ``fire()`` context matches every ``(key, value)`` pair, e.g.
            ``{"task_id": "run-000002"}`` targets one specific batch.
        beacon: a file shared across processes.  A firing rule appends one
            mark to it before acting; a ``defer`` rule (which requires a
            beacon) only fires while the file holds fewer than ``arg``
            marks.
    """

    site: str
    action: str
    after: int = 0
    times: int = 1
    arg: Optional[float] = None
    match: Tuple[Tuple[str, object], ...] = ()
    beacon: Optional[str] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"sites: {sorted(SITES)}")
        if self.action not in ACTIONS_BY_SITE[self.site]:
            raise ValueError(
                f"site {self.site!r} does not support action {self.action!r}; "
                f"supported: {sorted(ACTIONS_BY_SITE[self.site])}")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times < 0:
            raise ValueError("times must be >= 0 (0 = unlimited)")
        if self.action == ACTION_DEFER and not self.beacon:
            raise ValueError("a defer rule needs a beacon file to wait on")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {"site": self.site, "action": self.action}
        if self.after:
            data["after"] = self.after
        if self.times != 1:
            data["times"] = self.times
        if self.arg is not None:
            data["arg"] = self.arg
        if self.match:
            data["match"] = dict(self.match)
        if self.beacon is not None:
            data["beacon"] = self.beacon
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        match = data.get("match") or {}
        return cls(site=str(data["site"]), action=str(data["action"]),
                   after=int(data.get("after", 0)),
                   times=int(data.get("times", 1)),
                   arg=(float(data["arg"]) if data.get("arg") is not None
                        else None),
                   match=tuple(sorted(match.items())),
                   beacon=(str(data["beacon"]) if data.get("beacon") is not None
                           else None))


@dataclass(frozen=True)
class FaultPlan:
    """A serializable failure schedule: rules plus the jitter seed."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"version": PLAN_VERSION, "seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"fault plan version {version} not supported "
                             f"(this build reads version {PLAN_VERSION})")
        return cls(rules=tuple(FaultRule.from_dict(rule)
                               for rule in data.get("rules", [])),
                   seed=int(data.get("seed", 0)))

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Stateful runtime half of a :class:`FaultPlan`.

    Each rule keeps its own hit counter, so firing is a pure function of
    the sequence of ``fire()`` calls -- deterministic within one process.
    ``fired_log`` records every fault actually delivered (site, action,
    context), which chaos tests assert against to prove the schedule ran.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._hits = [0] * len(plan.rules)
        self.fired_log: List[Tuple[str, str, Dict[str, object]]] = []

    def fire(self, site: str, **context: object) -> List[FaultRule]:
        """Count a hit of ``site``; return the rules due to fire on it."""
        fired: List[FaultRule] = []
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if any(context.get(key) != value for key, value in rule.match):
                continue
            hit = self._hits[index]
            self._hits[index] = hit + 1
            if hit < rule.after:
                continue
            if rule.times and hit >= rule.after + rule.times:
                continue
            if rule.action == ACTION_DEFER:
                if beacon_marks(rule.beacon) >= (rule.arg or 1):
                    continue  # released: the awaited faults have fired
            elif rule.beacon is not None:
                _mark_beacon(rule.beacon)
            fired.append(rule)
            self.fired_log.append((site, rule.action, dict(context)))
        return fired


def beacon_marks(path: str) -> int:
    """How many fired rules have marked the beacon file at ``path``."""
    try:
        return os.path.getsize(path)  # one byte per mark
    except FileNotFoundError:
        return 0


def _mark_beacon(path: str) -> None:
    # One O_APPEND byte per mark: concurrent markers never lose a mark.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b".")
    finally:
        os.close(fd)


# --------------------------------------------------------- process-global hook
_installed: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as this process's active fault source."""
    global _installed
    _installed = injector
    return injector


def uninstall() -> None:
    """Remove the active injector (every site reverts to a no-op)."""
    global _installed
    _installed = None


def installed() -> Optional[FaultInjector]:
    return _installed


def install_plan_file(path: str) -> FaultInjector:
    """Load a plan JSON file and install its injector."""
    return install(FaultPlan.from_file(path).injector())


def install_from_env() -> Optional[FaultInjector]:
    """Install the plan named by ``$REPRO_FAULT_PLAN``, if set."""
    path = os.environ.get(FAULT_PLAN_ENV)
    if not path:
        return None
    return install_plan_file(path)


def fire(site: str, **context: object) -> Sequence[FaultRule]:
    """Site entry point: a no-op (cheap ``None`` check) until installed."""
    if _installed is None:
        return ()
    return _installed.fire(site, **context)


def perform(rule: FaultRule) -> None:
    """Apply a site-generic action (``kill``/``delay``/``oserror``).

    Site-specific actions (``torn``/``corrupt``/``backdate``) are
    interpreted by the site code itself -- they need the bytes or paths
    only the site holds.
    """
    if rule.action == ACTION_KILL:
        # os._exit, not sys.exit: the point is to die *without* cleanup,
        # leaving claim files and descriptors exactly as SIGKILL would.
        os._exit(KILL_EXIT_CODE)
    elif rule.action == ACTION_DELAY:
        time.sleep(rule.arg if rule.arg is not None else 0.05)
    elif rule.action == ACTION_OSERROR:
        raise InjectedError(f"injected transient fault at {rule.site}")


def corrupt_bytes(data: bytes, rule: FaultRule) -> bytes:
    """Damage an outgoing record/file body per ``torn``/``corrupt``.

    ``torn`` keeps only the first half (a write cut short mid-record);
    ``corrupt`` overwrites a deterministic interior slice, which either
    breaks the JSON outright or -- the nastier case -- leaves it parseable
    with silently wrong content, exactly what record checksums exist to
    catch.
    """
    if rule.action == ACTION_TORN:
        return data[: max(1, len(data) // 2)]
    if rule.action == ACTION_CORRUPT:
        keep_newline = data.endswith(b"\n")
        body = data[:-1] if keep_newline else data
        start = len(body) // 3
        width = min(8, max(1, len(body) - start))
        body = body[:start] + b"0" * width + body[start + width:]
        return body + (b"\n" if keep_newline else b"")
    return data


# ------------------------------------------------------------------- backoff
class Backoff:
    """Jittered exponential backoff, deterministic under a fixed seed.

    Replaces fixed sleeps in the worker idle loop and the transient-error
    retry paths: delays grow ``base * factor**n`` up to ``cap``, each
    multiplied by a jitter factor drawn from ``[1 - jitter, 1 + jitter]``
    so a fleet of workers polling one filesystem never thunders in phase.
    """

    def __init__(self, base: float, cap: Optional[float] = None,
                 factor: float = 2.0, jitter: float = 0.25,
                 seed: int = 0) -> None:
        if base <= 0:
            raise ValueError("base must be > 0")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.base = base
        self.cap = cap if cap is not None else base * 16
        self.factor = factor
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._attempt = 0

    @property
    def attempt(self) -> int:
        """How far the schedule has escalated (0 = next delay is ``base``)."""
        return self._attempt

    def reset(self) -> None:
        """Back to the base delay (call after any successful operation).

        Sites that keep a long-lived instance (the worker idle poll, the
        queue's publish retries, the telemetry sink's reconnect loop) MUST
        call this the moment the operation succeeds, or the next transient
        outage starts from an inflated delay left over from the previous
        one.  Each site owns its own instance -- sharing one ``Backoff``
        across sites couples their escalation schedules.
        """
        self._attempt = 0

    def next(self) -> float:
        """The next delay in seconds (advances the schedule)."""
        delay = min(self.cap, self.base * (self.factor ** self._attempt))
        self._attempt += 1
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def sleep(self) -> float:
        """Sleep for :meth:`next`; returns the delay actually used."""
        delay = self.next()
        time.sleep(delay)
        return delay


def stable_seed(name: str) -> int:
    """A deterministic per-name jitter seed (worker ids, queue roots)."""
    return zlib.crc32(name.encode("utf-8"))


__all__ = [
    "ACTION_DOWN",
    "ACTIONS_BY_SITE",
    "Backoff",
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedError",
    "KILL_EXIT_CODE",
    "SITES",
    "corrupt_bytes",
    "fire",
    "install",
    "install_from_env",
    "install_plan_file",
    "installed",
    "perform",
    "stable_seed",
    "uninstall",
]
