"""Parallel and distributed campaign execution subsystem.

Shards grids of independent campaign trials across pluggable backends
(serial, multi-process pool, or a spool-directory queue served by external
workers), batches cache-compatible trials so one warm-up serves many,
journals completed trials to a JSONL checkpoint for kill-safe resume, and
serves repeated tests' outcomes, golden runs and compiled programs from
per-process LRU caches under one bound (:mod:`repro.exec.cache`).  The
:mod:`repro.exec.faults` module provides deterministic fault injection for
exercising the stack's self-healing paths (heartbeat leases, retry budgets
with dead-letter quarantine, checksummed journal salvage), and
:mod:`repro.exec.transport` supervises worker fleets across host
boundaries (local or ssh) with crash-loop budgets and degraded-host
redistribution.  See ``docs/parallel.md``, ``docs/distributed.md``,
``docs/robustness.md`` and ``docs/service.md`` for the architecture,
determinism contract and failure semantics.
"""

from repro.exec.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.batching import (
    DEFAULT_BATCH_SIZE,
    TrialBatch,
    TrialTask,
    execute_batch,
    plan_batches,
)
from repro.exec.cache import (
    DutRunCache,
    configure_process_caches,
    process_dut_cache,
    process_golden_cache,
)
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.distributed import DistributedBackend, run_worker
from repro.exec.engine import CampaignEngine
from repro.exec.faults import Backoff, FaultInjector, FaultPlan, FaultRule
from repro.exec.queue import DEFAULT_MAX_ATTEMPTS, LeaseLostError, SpoolQueue
from repro.exec.transport import (
    LocalTransport,
    SshTransport,
    WorkerSpec,
    WorkerSupervisor,
)

__all__ = [
    "Backoff",
    "CampaignEngine",
    "CheckpointJournal",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_ATTEMPTS",
    "DistributedBackend",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "DutRunCache",
    "ExecutionBackend",
    "LeaseLostError",
    "LocalTransport",
    "ProcessPoolBackend",
    "SerialBackend",
    "SpoolQueue",
    "SshTransport",
    "TrialBatch",
    "TrialTask",
    "WorkerSpec",
    "WorkerSupervisor",
    "configure_process_caches",
    "execute_batch",
    "plan_batches",
    "process_dut_cache",
    "process_golden_cache",
    "run_worker",
]
