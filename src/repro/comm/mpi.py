"""SimMPI: deterministic, event-driven simulated MPI.

Rank programs are *generator functions* that yield request objects and
are resumed with the request's result — the mpi4py surface reduced to
what parallel branch-and-cut needs (paper §2.3/§3):

    def worker(rank, size):
        msg = yield Recv()                       # blocking receive
        yield Compute(seconds=msg.payload.cost)  # model local work
        yield Send(dest=0, payload=result)       # eager buffered send
        total = yield Allreduce(local, op=max)   # collective
        return final_value

The scheduler maintains one simulated clock per rank, matches sends to
receives with alpha–beta message timing, executes collectives with
log₂(P) tree timing, and raises :class:`DeadlockError` when every
unfinished rank is blocked on a message that can never arrive.

Determinism: ready ranks are always resumed in rank order, and message
matching is FIFO per (source, tag) — repeated runs give identical
schedules and clocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro import obs
from repro.comm.network import SUMMIT_FAT_TREE, NetworkSpec, payload_bytes
from repro.errors import CommError, DeadlockError, RankError, RankLostError
from repro.faults.injector import active as fault_active
from repro.metrics import Metrics

#: Wildcard source for :class:`Recv`.
ANY_SOURCE = -1
#: Wildcard tag for :class:`Recv`.
ANY_TAG = -1
#: Scheduler steps after which :meth:`SimMPI.run` gives up.
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Send:
    """Eager buffered send: deposits the message and continues."""

    dest: int
    payload: Any = None
    tag: int = 0


@dataclass(frozen=True)
class Recv:
    """Blocking receive; matches by (source, tag) with wildcards."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass(frozen=True)
class Probe:
    """Non-blocking probe: resumes immediately with a bool (message waiting?)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass(frozen=True)
class Compute:
    """Advance this rank's clock by ``seconds`` of local work."""

    seconds: float


@dataclass(frozen=True)
class Barrier:
    """Synchronize all ranks (tree timing)."""


@dataclass(frozen=True)
class Bcast:
    """Broadcast ``payload`` from ``root``; every rank receives it."""

    root: int = 0
    payload: Any = None


@dataclass(frozen=True)
class Allreduce:
    """Reduce ``value`` across ranks with ``op``; all ranks get the result."""

    value: Any
    op: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class Gather:
    """Gather ``value`` from every rank to ``root`` (others get None)."""

    value: Any
    root: int = 0


@dataclass(frozen=True)
class Reduce:
    """Reduce ``value`` to ``root`` with ``op`` (others get None)."""

    value: Any
    op: Callable[[Any, Any], Any]
    root: int = 0


@dataclass(frozen=True)
class Scatter:
    """Root supplies ``values`` (one per rank); each rank gets its own."""

    values: Any = None
    root: int = 0


@dataclass(frozen=True)
class Message:
    """A matched receive's result."""

    source: int
    tag: int
    payload: Any
    #: Simulated time at which the message became available.
    arrival: float


@dataclass(eq=False)
class _RankState:
    gen: Generator
    rank: int
    clock: float = 0.0
    finished: bool = False
    result: Any = None
    #: Pending value to resume the generator with.
    resume_value: Any = None
    #: Set when blocked on a Recv that found no match.
    blocked_recv: Optional[Recv] = None
    #: Set when waiting at a collective.
    at_collective: Optional[Tuple[str, Any]] = None
    #: Messages sent to this rank, in deposit order.
    mailbox: List[Message] = field(default_factory=list)


class SimMPI:
    """A simulated communicator over ``num_ranks`` ranks."""

    def __init__(
        self,
        num_ranks: int,
        network: NetworkSpec = SUMMIT_FAT_TREE,
    ):
        if num_ranks < 1:
            raise RankError(f"need at least 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.network = network
        self.metrics = Metrics()
        self._ranks: List[_RankState] = []

    # -- public API ------------------------------------------------------------

    def run(self, program: Callable[[int, int], Generator]) -> "SimMPIResult":
        """Run ``program(rank, size)`` on every rank to completion.

        Returns a :class:`SimMPIResult` with per-rank return values and
        clocks.  Raises :class:`DeadlockError` if progress stalls and
        :class:`CommError` if ``MAX_STEPS`` scheduler steps are exceeded.
        """
        self._ranks = [
            _RankState(gen=program(rank, self.num_ranks), rank=rank)
            for rank in range(self.num_ranks)
        ]
        steps = 0
        while not all(r.finished for r in self._ranks):
            progressed = self._step_ready_ranks()
            if not progressed:
                progressed = self._try_unblock()
            if not progressed:
                self._raise_deadlock()
            steps += 1
            if steps > MAX_STEPS:
                raise CommError(f"scheduler exceeded {MAX_STEPS} steps")
        return SimMPIResult(
            results=[r.result for r in self._ranks],
            clocks=[r.clock for r in self._ranks],
            metrics=self.metrics,
        )

    # -- scheduling ------------------------------------------------------------

    def _step_ready_ranks(self) -> bool:
        progressed = False
        for rank, state in enumerate(self._ranks):
            if state.finished or state.blocked_recv or state.at_collective:
                continue
            progressed = True
            self._resume(rank, state)
        return progressed

    def _resume(self, rank: int, state: _RankState) -> None:
        injector = fault_active()
        if injector is not None and injector.rank_drop(rank):
            # The rank dies before making progress; the whole run fails
            # fast so a supervisor-level recovery loop can restart from
            # its latest consistent snapshot.
            state.finished = True
            state.gen.close()
            self.metrics.inc("comm.rank_drops")
            obs.event("fault.rank_drop", category="fault", rank=rank)
            raise RankLostError(rank)
        value, state.resume_value = state.resume_value, None
        try:
            request = state.gen.send(value)
        except StopIteration as stop:
            state.finished = True
            state.result = stop.value
            return
        self._handle(rank, state, request)

    def _handle(self, rank: int, state: _RankState, request: Any) -> None:
        if isinstance(request, Send):
            self._do_send(rank, state, request)
        elif isinstance(request, Recv):
            if not self._try_deliver(rank, state, request):
                state.blocked_recv = request
        elif isinstance(request, Probe):
            state.resume_value = self._find_match(rank, request, state.clock) is not None
        elif isinstance(request, Compute):
            if request.seconds < 0:
                raise CommError(f"negative compute time {request.seconds}")
            start = state.clock
            state.clock += request.seconds
            self.metrics.add_time("time.compute", request.seconds)
            tracer = obs.active()
            if tracer is not None:
                tracer.sim_span(
                    "compute", start, request.seconds,
                    f"rank{rank}", category="comm",
                )
        elif isinstance(request, (Barrier, Bcast, Allreduce, Gather, Reduce, Scatter)):
            state.at_collective = (type(request).__name__, request)
            self._maybe_complete_collective()
        else:
            raise CommError(f"rank {rank} yielded unknown request {request!r}")

    def _do_send(self, rank: int, state: _RankState, request: Send) -> None:
        if not (0 <= request.dest < self.num_ranks):
            raise RankError(f"send to invalid rank {request.dest}")
        nbytes = payload_bytes(request.payload)
        cost = self.network.message_time(nbytes)
        # Eager protocol: sender pays injection, message lands after flight.
        inject_start = state.clock
        state.clock += self.network.latency
        arrival = state.clock + cost
        self._ranks[request.dest].mailbox.append(
            Message(source=rank, tag=request.tag, payload=request.payload, arrival=arrival)
        )
        self.metrics.inc("comm.messages")
        self.metrics.inc("comm.bytes", nbytes)
        tracer = obs.active()
        if tracer is not None:
            tracer.sim_span(
                f"send->{request.dest}", inject_start, arrival - inject_start,
                f"rank{rank}", category="comm",
                dest=request.dest, tag=request.tag, nbytes=nbytes,
            )
        state.resume_value = None

    def _find_match(
        self, rank: int, request: Recv, ready_by: Optional[float]
    ) -> Optional[int]:
        mailbox = self._ranks[rank].mailbox
        for idx, msg in enumerate(mailbox):
            if request.source not in (ANY_SOURCE, msg.source):
                continue
            if request.tag not in (ANY_TAG, msg.tag):
                continue
            if ready_by is not None and msg.arrival > ready_by:
                continue
            return idx
        return None

    def _try_deliver(self, rank: int, state: _RankState, request: Recv) -> bool:
        # Prefer a message already arrived; otherwise accept the earliest
        # matching in-flight message and wait for it.
        idx = self._find_match(rank, request, state.clock)
        if idx is None:
            idx = self._find_earliest_match(rank, request)
        if idx is None:
            return False
        msg = self._ranks[rank].mailbox.pop(idx)
        state.clock = max(state.clock, msg.arrival)
        state.resume_value = msg
        state.blocked_recv = None
        return True

    def _find_earliest_match(self, rank: int, request: Recv) -> Optional[int]:
        best_idx, best_arrival = None, None
        for idx, msg in enumerate(self._ranks[rank].mailbox):
            if request.source not in (ANY_SOURCE, msg.source):
                continue
            if request.tag not in (ANY_TAG, msg.tag):
                continue
            if best_arrival is None or msg.arrival < best_arrival:
                best_idx, best_arrival = idx, msg.arrival
        return best_idx

    def _try_unblock(self) -> bool:
        progressed = False
        for rank, state in enumerate(self._ranks):
            if state.finished or state.blocked_recv is None:
                continue
            if self._try_deliver(rank, state, state.blocked_recv):
                self._resume(rank, state)
                progressed = True
        return progressed

    # -- collectives -------------------------------------------------------------

    def _maybe_complete_collective(self) -> None:
        waiting = [r for r in self._ranks if r.at_collective and not r.finished]
        active = [r for r in self._ranks if not r.finished]
        if len(waiting) != len(active) or not waiting:
            return
        kinds = {r.at_collective[0] for r in waiting}
        if len(kinds) != 1:
            raise CommError(f"mismatched collectives: {sorted(kinds)}")
        kind = kinds.pop()
        requests = [r.at_collective[1] for r in waiting]
        # Tree-structured timing: log2(P) message steps from the latest rank.
        depth = max(1, math.ceil(math.log2(max(2, len(waiting)))))
        start = max(r.clock for r in waiting)

        if kind == "Barrier":
            finish = start + depth * self.network.latency
            results = [None] * len(waiting)
        elif kind == "Bcast":
            roots = {req.root for req in requests}
            if len(roots) != 1:
                raise CommError(f"Bcast with mismatched roots {sorted(roots)}")
            root = roots.pop()
            payload = next(
                req.payload for r, req in zip(waiting, requests) if r.rank == root
            )
            nbytes = payload_bytes(payload)
            finish = start + depth * self.network.message_time(nbytes)
            results = [payload] * len(waiting)
        elif kind == "Allreduce":
            op = requests[0].op
            acc = requests[0].value
            for req in requests[1:]:
                acc = op(acc, req.value)
            nbytes = max(payload_bytes(req.value) for req in requests)
            finish = start + 2 * depth * self.network.message_time(nbytes)
            results = [acc] * len(waiting)
        elif kind == "Reduce":
            roots = {req.root for req in requests}
            if len(roots) != 1:
                raise CommError(f"Reduce with mismatched roots {sorted(roots)}")
            root = roots.pop()
            op = requests[0].op
            acc = requests[0].value
            for req in requests[1:]:
                acc = op(acc, req.value)
            nbytes = max(payload_bytes(req.value) for req in requests)
            finish = start + depth * self.network.message_time(nbytes)
            results = [acc if r.rank == root else None for r in waiting]
        elif kind == "Scatter":
            roots = {req.root for req in requests}
            if len(roots) != 1:
                raise CommError(f"Scatter with mismatched roots {sorted(roots)}")
            root = roots.pop()
            values = next(
                req.values for r, req in zip(waiting, requests) if r.rank == root
            )
            if values is None or len(values) != self.num_ranks:
                raise CommError(
                    f"Scatter root must supply one value per rank "
                    f"({0 if values is None else len(values)} != {self.num_ranks})"
                )
            nbytes = sum(payload_bytes(v) for v in values)
            finish = start + depth * self.network.latency + nbytes / self.network.bandwidth
            results = [values[r.rank] for r in waiting]
        elif kind == "Gather":
            roots = {req.root for req in requests}
            if len(roots) != 1:
                raise CommError(f"Gather with mismatched roots {sorted(roots)}")
            root = roots.pop()
            gathered = [req.value for req in requests]
            nbytes = sum(payload_bytes(req.value) for req in requests)
            finish = start + depth * self.network.latency + nbytes / self.network.bandwidth
            results = [gathered if r.rank == root else None for r in waiting]
        else:  # pragma: no cover - _handle filters kinds
            raise CommError(f"unknown collective {kind}")

        self.metrics.inc(f"comm.collective.{kind.lower()}")
        tracer = obs.active()
        if tracer is not None:
            tracer.sim_span(
                kind.lower(), start, finish - start,
                "collective", category="comm", ranks=len(waiting),
            )
        for state, result in zip(waiting, results):
            state.clock = finish
            state.at_collective = None
            state.resume_value = result

    # -- failure reporting ---------------------------------------------------------

    def _raise_deadlock(self) -> None:
        detail = []
        for rank, state in enumerate(self._ranks):
            if state.finished:
                continue
            if state.blocked_recv is not None:
                req = state.blocked_recv
                detail.append(
                    f"rank {rank} blocked on Recv(source={req.source}, tag={req.tag})"
                )
            elif state.at_collective is not None:
                detail.append(f"rank {rank} waiting at {state.at_collective[0]}")
            else:  # pragma: no cover - defensive
                detail.append(f"rank {rank} unexpectedly stalled")
        raise DeadlockError("; ".join(detail))


@dataclass
class SimMPIResult:
    """Outcome of a :meth:`SimMPI.run`."""

    #: Per-rank generator return values.
    results: List[Any]
    #: Per-rank final simulated clocks (seconds).
    clocks: List[float]
    metrics: Metrics

    @property
    def makespan(self) -> float:
        """Slowest rank's finish time — the job's simulated duration."""
        return max(self.clocks)
