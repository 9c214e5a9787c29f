"""UG-style Supervisor–Worker engine over SimMPI.

Paper §2.3: the Ubiquity Generator framework parallelizes a
branch-and-bound base solver with a Supervisor–Worker coordination
mechanism — the supervisor keeps a small pool of sub-problems for load
balancing, implements *ramp-up* (growing the pool before wide
distribution), dynamic load balancing, and checkpointing/restart.  This
module implements that engine generically: callers provide the root
tasks and an ``evaluate`` function; branch-and-bound plugs in its node
evaluation, but the engine is independently testable.

Consistent snapshots (paper §2.1): in a distributed run the snapshot
must include (a) tasks being evaluated and (b) tasks in transit.  The
supervisor owns both sets here (tasks are handed out and returned via
messages it sees), so the snapshot taken at result-receipt — queued ∪
outstanding — is exactly the paper's consistent leaf set.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.comm.mpi import ANY_SOURCE, Compute, Recv, Send, SimMPI
from repro.comm.network import SUMMIT_FAT_TREE, NetworkSpec
from repro.errors import CommError
from repro.metrics import Metrics

#: Message tags for the supervisor protocol.
TAG_WORK_REQUEST = 1
TAG_TASK = 2
TAG_RESULT = 3
TAG_STOP = 4


@dataclass(frozen=True)
class Task:
    """One unit of distributable work (a branch-and-bound node).

    ``priority`` orders the supervisor's pool (smaller first — for
    best-first B&B use the negated LP bound).  ``nbytes`` prices the
    message that ships this task to a worker.
    """

    payload: Any
    priority: float = 0.0
    nbytes: int = 256

    def comm_nbytes(self) -> int:
        """Hook for :func:`repro.comm.network.payload_bytes`."""
        return self.nbytes


@dataclass(frozen=True)
class TaskResult:
    """What evaluating one task produced."""

    #: New tasks spawned (branch children); empty when the node closed.
    children: Tuple[Task, ...] = ()
    #: Simulated seconds the evaluation took on the worker.
    compute_seconds: float = 0.0
    #: New incumbent objective if the evaluation found one (maximization).
    incumbent: Optional[float] = None


#: evaluate(payload, incumbent) -> TaskResult; must be pure per payload.
EvaluateFn = Callable[[Any, Optional[float]], TaskResult]


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervisor–worker engine."""

    num_workers: int
    #: Expand tasks on the supervisor until the pool can feed every
    #: worker (UG's ramp-up).  Without it the initial task trickles out.
    ramp_up: bool = True
    #: Dynamic load balancing: children return to the global pool.  When
    #: False, children stay on the worker that produced them (static).
    dynamic_load_balancing: bool = True
    #: Record a consistent snapshot every N completed evaluations
    #: (0 disables checkpointing).
    checkpoint_every: int = 0
    #: Safety valve on total evaluations.
    max_evaluations: int = 1_000_000
    #: Called with each snapshot as it is taken.  A sink outlives a
    #: crashed run — it is how rank-loss recovery gets the latest
    #: consistent snapshot to restart from.
    checkpoint_sink: Optional[Callable[["Snapshot"], None]] = None


@dataclass
class Snapshot:
    """A consistent snapshot: tasks that preserve the optimum."""

    #: Simulated supervisor time at capture.
    when: float
    #: Payloads of queued + outstanding tasks.
    tasks: List[Any]
    #: Incumbent at capture time.
    incumbent: Optional[float]


@dataclass
class SupervisorResult:
    """Outcome of a supervisor–worker run."""

    makespan: float
    evaluations: int
    incumbent: Optional[float]
    metrics: Metrics
    #: Evaluations performed per worker rank (1-indexed ranks).
    per_worker: List[int] = field(default_factory=list)


def run_supervisor_worker(
    roots: List[Task],
    evaluate: EvaluateFn,
    config: SupervisorConfig,
    network: NetworkSpec = SUMMIT_FAT_TREE,
) -> SupervisorResult:
    """Run tasks to exhaustion on ``num_workers`` workers + 1 supervisor.

    With ``num_workers == 0`` the supervisor evaluates everything itself
    (the sequential baseline the scaling experiment E8 normalizes by).
    """
    if config.num_workers < 0:
        raise CommError(f"num_workers must be >= 0, got {config.num_workers}")
    if config.num_workers == 0:
        return _run_sequential(roots, evaluate, config)
    if config.dynamic_load_balancing:
        program = _make_dynamic_program(roots, evaluate, config)
    else:
        program = _make_static_program(roots, evaluate, config)
    mpi = SimMPI(config.num_workers + 1, network=network)
    run = mpi.run(program)
    evaluations, incumbent, per_worker = run.results[0]
    return SupervisorResult(
        makespan=run.makespan,
        evaluations=evaluations,
        incumbent=incumbent,
        metrics=run.metrics,
        per_worker=per_worker,
    )


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


class _TaskPool:
    """Priority pool with deterministic FIFO tie-breaking."""

    def __init__(self, roots: List[Task]):
        self._heap: List[Tuple[float, int, Task]] = []
        self._counter = itertools.count()
        for task in roots:
            self.push(task)

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (task.priority, next(self._counter), task))

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[2]

    def payloads(self) -> List[Any]:
        return [task.payload for _, _, task in sorted(self._heap, key=lambda t: t[:2])]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _merge_incumbent(current: Optional[float], new: Optional[float]) -> Optional[float]:
    """Keep the larger objective (maximization convention)."""
    if new is None:
        return current
    if current is None or new > current:
        return new
    return current


class _Books:
    """One search's books: the task pool, the incumbent, the evaluation count.

    Every place an evaluation lands — the sequential loop, ramp-up, the
    dynamic supervisor's result receipt, a static worker — folds it in
    with :meth:`absorb`.
    """

    def __init__(self, roots: List[Task], config: SupervisorConfig):
        self.pool = _TaskPool(roots)
        self.incumbent: Optional[float] = None
        self.evaluations = 0
        self._config = config

    def absorb(self, result: TaskResult) -> None:
        """Count one evaluation, merge its incumbent, queue its children."""
        self.evaluations += 1
        self.incumbent = _merge_incumbent(self.incumbent, result.incumbent)
        for child in result.children:
            self.pool.push(child)

    def checkpoint(self, when: float, in_flight: Iterable[Task] = ()) -> None:
        """Hand the sink a consistent snapshot when one is due.

        Queued tasks ∪ tasks still with workers or in transit: together
        they preserve the optimum wherever the search is interrupted.
        """
        config = self._config
        if (
            config.checkpoint_every
            and self.evaluations % config.checkpoint_every == 0
            and config.checkpoint_sink is not None
        ):
            config.checkpoint_sink(
                Snapshot(
                    when=when,
                    tasks=self.pool.payloads() + [t.payload for t in in_flight],
                    incumbent=self.incumbent,
                )
            )


# ---------------------------------------------------------------------------
# Sequential baseline
# ---------------------------------------------------------------------------


def _run_sequential(
    roots: List[Task], evaluate: EvaluateFn, config: SupervisorConfig
) -> SupervisorResult:
    books = _Books(roots, config)
    clock = 0.0
    while books.pool and books.evaluations < config.max_evaluations:
        result = evaluate(books.pool.pop().payload, books.incumbent)
        clock += result.compute_seconds
        books.absorb(result)
        books.checkpoint(clock)
    return SupervisorResult(
        makespan=clock,
        evaluations=books.evaluations,
        incumbent=books.incumbent,
        metrics=Metrics(),
    )


# ---------------------------------------------------------------------------
# Dynamic load balancing protocol
# ---------------------------------------------------------------------------


def _make_dynamic_program(
    roots: List[Task], evaluate: EvaluateFn, config: SupervisorConfig
):
    def program(rank: int, size: int) -> Generator:
        if rank == 0:
            return (yield from _dynamic_supervisor(roots, evaluate, config, size))
        return (yield from _dynamic_worker(evaluate))

    return program


def _dynamic_supervisor(
    roots: List[Task], evaluate: EvaluateFn, config: SupervisorConfig, size: int
) -> Generator:
    books = _Books(roots, config)
    pool = books.pool
    per_worker = [0] * size  # index by rank; rank 0 stays zero
    outstanding: dict = {}  # worker rank -> Task in flight / in eval
    idle_workers: List[int] = []

    def under_cap(in_flight: int) -> bool:
        return books.evaluations + in_flight < config.max_evaluations

    def can_hand_out() -> bool:
        return bool(pool) and under_cap(len(outstanding))

    # Ramp-up: expand locally until every worker can receive a task.
    if config.ramp_up:
        while pool and len(pool) < config.num_workers and under_cap(0):
            result = evaluate(pool.pop().payload, books.incumbent)
            yield Compute(seconds=result.compute_seconds)
            books.absorb(result)

    stopped = 0
    while stopped < config.num_workers:
        msg = yield Recv(source=ANY_SOURCE)
        if msg.tag == TAG_WORK_REQUEST:
            if can_hand_out():
                task = pool.pop()
                outstanding[msg.source] = task
                yield Send(dest=msg.source, payload=(task, books.incumbent), tag=TAG_TASK)
            elif not outstanding:
                yield Send(dest=msg.source, tag=TAG_STOP)
                stopped += 1
            else:
                idle_workers.append(msg.source)
        elif msg.tag == TAG_RESULT:
            outstanding.pop(msg.source, None)
            per_worker[msg.source] += 1
            books.absorb(msg.payload)
            books.checkpoint(msg.arrival, outstanding.values())
            # Feed idle workers as work becomes available.
            while idle_workers and can_hand_out():
                worker = idle_workers.pop(0)
                task = pool.pop()
                outstanding[worker] = task
                yield Send(dest=worker, payload=(task, books.incumbent), tag=TAG_TASK)
            if not pool and not outstanding:
                while idle_workers:
                    yield Send(dest=idle_workers.pop(0), tag=TAG_STOP)
                    stopped += 1
        else:  # pragma: no cover - protocol violation
            raise CommError(f"supervisor got unexpected tag {msg.tag}")

    return books.evaluations, books.incumbent, per_worker[1:]


def _dynamic_worker(evaluate: EvaluateFn) -> Generator:
    while True:
        yield Send(dest=0, tag=TAG_WORK_REQUEST)
        msg = yield Recv(source=0)
        if msg.tag == TAG_STOP:
            return None
        task, incumbent = msg.payload
        result = evaluate(task.payload, incumbent)
        yield Compute(seconds=result.compute_seconds)
        yield Send(dest=0, payload=result, tag=TAG_RESULT)


# ---------------------------------------------------------------------------
# Static partitioning protocol (the no-load-balancing ablation)
# ---------------------------------------------------------------------------


def _make_static_program(
    roots: List[Task], evaluate: EvaluateFn, config: SupervisorConfig
):
    def program(rank: int, size: int) -> Generator:
        if rank == 0:
            return (yield from _static_supervisor(config))
        return (yield from _static_worker(roots, evaluate, config, rank))

    return program


def _static_supervisor(config: SupervisorConfig) -> Generator:
    incumbent: Optional[float] = None
    per_worker = [0] * config.num_workers
    for _ in range(config.num_workers):
        msg = yield Recv(source=ANY_SOURCE, tag=TAG_RESULT)
        count, best = msg.payload
        per_worker[msg.source - 1] = count
        incumbent = _merge_incumbent(incumbent, best)
    return sum(per_worker), incumbent, per_worker


def _static_worker(
    roots: List[Task], evaluate: EvaluateFn, config: SupervisorConfig, rank: int
) -> Generator:
    # Round-robin ownership of root tasks; children never migrate.
    mine = [task for i, task in enumerate(roots) if i % config.num_workers == rank - 1]
    books = _Books(mine, config)
    share = config.max_evaluations // config.num_workers
    while books.pool and books.evaluations < share:
        result = evaluate(books.pool.pop().payload, books.incumbent)
        yield Compute(seconds=result.compute_seconds)
        books.absorb(result)
    yield Send(dest=0, payload=(books.evaluations, books.incumbent), tag=TAG_RESULT)
    return None
