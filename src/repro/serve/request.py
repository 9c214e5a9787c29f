"""Solve requests, responses, and canonical problem fingerprints.

The serving layer (paper §5.5's "many small concurrent problems" regime)
speaks in :class:`SolveRequest` / :class:`SolveResponse` pairs.  Each
request carries a problem (an LP or a MIP), a simulated arrival time,
and an optional queue timeout; each response carries the solver outcome
plus the per-stage timestamps (arrival → batch formed → device start →
completion) the service's observability is built on.

:func:`fingerprint` is the canonical content hash used by the result
cache and by request coalescing: two problems with identical data (the
instance *name* is deliberately excluded) share a fingerprint, so a
duplicate request never hits the device twice.
:func:`structure_fingerprint` hashes only what fixes an LP's
standard-form matrix: the key its warm state is filed under and the
router places it by.

This module owns what a request is keyed by and what its answer
echoes.  A request carries its keys: the fingerprint and cache channel
from :func:`prepare_request`, the placement key from its first use.
:func:`respond` is the one constructor of a response addressed to a
request.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import operator
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.api import check_gap_target, check_seconds
from repro.errors import RequestTimeout, ServiceError
from repro.lp.problem import ARRAYS, LinearProgram
from repro.mip.problem import MIPProblem

Problem = Union[LinearProgram, MIPProblem]

#: Accepted ``SolveRequest.mode`` values (string forms of
#: :class:`repro.api.SolveMode`; non-exact modes apply to MIPs only).
VALID_MODES = ("exact", "heuristic_first", "heuristic_only")


#: The record's arrays in :data:`ARRAYS` order, read in one call.
_RECORD = operator.attrgetter(*ARRAYS)
_MIP_TAGS = ARRAYS + ("integer",)


@functools.lru_cache(maxsize=1024)
def _header(*fields) -> bytes:
    """``field:field:…;`` encoded: a hashed array's ``tag:dtype:shape;``
    (``tag:none;`` when absent).  Formatted once per distinct header; a
    replay meets the shapes its first solve met."""
    return (":".join(map(str, fields)) + ";").encode()


def _stream(head: bytes, tags, arrays) -> list:
    """``head``, then each array's header and bytes: the pieces of the
    byte stream a fingerprint hashes in one ``sha256`` call.

    ``tobytes`` reads any layout in C order, so no contiguous copy is
    needed.
    """
    parts = [head]
    for tag, arr in zip(tags, arrays):
        if arr is None:
            parts.append(_header(tag, "none"))
        else:
            parts += (_header(tag, arr.dtype.str, arr.shape), arr.tobytes())
    return parts


def fingerprint(problem: Problem) -> str:
    """Canonical content hash of a problem (instance name excluded)."""
    if isinstance(problem, MIPProblem):
        parts = _stream(b"mip", _MIP_TAGS, (*_RECORD(problem), problem.integer))
    else:
        parts = _stream(b"lp", ARRAYS, _RECORD(problem))
    return hashlib.sha256(b"".join(parts)).hexdigest()


def structure_fingerprint(problem: LinearProgram) -> str:
    """Hash of the parts that fix the standard-form matrix ``A``.

    Constraint coefficients exactly; bounds only by their finiteness
    pattern (a finite lower bound shifts ``b``, a finite upper bound is
    an ``upper`` entry — or, free below, a row whose *coefficients*
    don't depend on its value).  ``c``,
    ``b_ub``/``b_eq``, and bound values are deliberately excluded —
    they are the parametric degrees of freedom.
    """
    # Both patterns as one (2, n) stack; packing along rows pads each
    # row as packing it alone would.
    finite = np.isfinite((problem.lb, problem.ub))
    lb_bits, ub_bits = np.packbits(finite, axis=1)
    shape = finite.shape[1:]
    parts = _stream(b"lp-structure", ("a_ub", "a_eq"), (problem.a_ub, problem.a_eq))
    parts += (_header("lb", shape), lb_bits.tobytes())
    parts += (_header("ub", shape), ub_bits.tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


class Outcome(enum.Enum):
    """Terminal serving outcome of one request."""

    #: The solver reached a terminal answer (optimal/infeasible/unbounded).
    OK = "ok"
    #: The request's queue timeout elapsed before its batch was formed.
    TIMEOUT = "timeout"
    #: The solver failed to reach a terminal answer (crash, numerics, …).
    FAILED = "failed"
    #: A budget (deadline / node / iteration limit) stopped the solve;
    #: the response carries the anytime answer: best incumbent, the
    #: certified dual bound, and the gap between them.
    PARTIAL = "partial"
    #: SLO-aware admission refused the request at the cluster front door
    #: (low-priority traffic shed under overload); the device was never
    #: touched and the answer was never computed.
    SHED = "shed"


@dataclass(eq=False)
class SolveRequest:
    """One solve request in the service's simulated timeline.

    Compared by identity: two requests for the same problem are still
    two requests (and field-wise equality would compare numpy arrays).
    """

    problem: Problem
    #: Simulated arrival time (seconds); submissions must be time-ordered.
    arrival_time: float = 0.0
    #: Max simulated seconds the request may wait in queue (None = forever).
    timeout: Optional[float] = None
    #: Max simulated *device* seconds the solve itself may spend (None =
    #: unlimited).  A mid-solve expiry yields ``Outcome.PARTIAL`` with
    #: the anytime incumbent, dual bound, and gap — never a hang.
    solve_deadline: Optional[float] = None
    #: Quality-vs-latency contract (see :class:`repro.api.SolveMode`):
    #: ``"exact"``, ``"heuristic_first"``, or ``"heuristic_only"``.
    #: Non-exact modes are MIP-only and are served on a separate cache /
    #: coalescing channel — a heuristic answer never masquerades as an
    #: exact one.
    mode: str = "exact"
    #: Relative-gap goal threaded into non-exact solves.
    gap_target: Optional[float] = None
    #: Assigned by the service at admission.
    request_id: int = -1
    #: Canonical content hash; computed once by :func:`prepare_request`.
    fingerprint: str = ""
    #: Cache/coalescing channel key, set with the fingerprint by
    #: :func:`prepare_request` (the one place a request is built).  Exact
    #: requests use the bare fingerprint; non-exact requests get a
    #: distinct ``#h:`` channel that also encodes the gap target, so a
    #: ``heuristic_only`` answer can never be served from — or written
    #: into — the exact result cache, and requests with different
    #: quality goals never coalesce.
    cache_key: str = ""
    #: Trace id assigned at admission (``req-000042``-style).
    trace_id: str = ""
    #: Placement key, filled at its first use (see :attr:`placement_key`);
    #: a ``dataclasses.replace`` copy carries it.
    _placement: str = field(default="", repr=False)

    @property
    def kind(self) -> str:
        """``"mip"`` or ``"lp"``."""
        return "mip" if isinstance(self.problem, MIPProblem) else "lp"

    @property
    def placement_key(self) -> str:
        """The key a router places this request by and its warm state is
        filed under: an LP's :func:`structure_fingerprint` (perturbed
        near-duplicates share it), a MIP's content fingerprint.

        Hashed at the first read, not at admission: a request no tier
        places — a cluster request that follows an in-flight duplicate,
        a lone service's cache hit or coalesced duplicate — is never
        hashed.
        """
        if not self._placement:
            self._placement = (
                self.fingerprint
                if isinstance(self.problem, MIPProblem)
                else structure_fingerprint(self.problem)
            )
        return self._placement

    @property
    def deadline(self) -> float:
        """Absolute time at which the queue timeout fires (inf if none)."""
        if self.timeout is None:
            return np.inf
        return self.arrival_time + self.timeout


def prepare_request(
    problem: Problem,
    timeout: Optional[float] = None,
    solve_deadline: Optional[float] = None,
    mode: str = "exact",
    gap_target: Optional[float] = None,
) -> SolveRequest:
    """Validate one submission and key it — once, in one place.

    ``mode`` may be a :class:`repro.api.SolveMode` or its string value
    (stored as the string).  Each of these raises
    :class:`repro.errors.ServiceError`: an unknown mode, or a non-exact
    one on an LP; a ``timeout`` that is not a non-negative number of
    seconds; a ``solve_deadline`` that is not a positive one; a
    ``gap_target`` that :class:`repro.api.SolveOptions` would refuse.
    No service state is touched, so a front door calls this before it
    counts, routes or admits anything; arrival time and ids are stamped
    at admission.
    """
    mode = getattr(mode, "value", mode)
    if mode not in VALID_MODES:
        raise ServiceError(
            f"unknown solve mode {mode!r}; valid modes are "
            + ", ".join(repr(m) for m in VALID_MODES)
        )
    if mode != "exact" and isinstance(problem, LinearProgram):
        raise ServiceError(
            f"mode={mode!r} applies to MIPs only; LPs always solve exactly"
        )
    # Only fields that are set are checked: a plain request pays nothing.
    if timeout is not None:
        check_seconds("timeout", timeout, False, ServiceError)
    if solve_deadline is not None:
        check_seconds("solve_deadline", solve_deadline, True, ServiceError)
    if gap_target is not None:
        check_gap_target(gap_target, mode, ServiceError)
    key = fingerprint(problem)
    channel = key
    if mode != "exact":
        gap = "" if gap_target is None else f"{gap_target:.12g}"
        channel = f"{key}#h:{mode}:{gap}"
    return SolveRequest(
        problem=problem,
        timeout=timeout,
        solve_deadline=solve_deadline,
        mode=mode,
        gap_target=gap_target,
        fingerprint=key,
        cache_key=channel,
    )


@dataclass
class SolveResponse:
    """Per-request result with per-stage timestamps.

    Stage boundaries: ``arrival_time`` (admitted) → ``dispatch_time``
    (its batch was formed) → ``start_time`` (the batch began executing
    on a worker device) → ``completion_time`` (results available).
    """

    request_id: int
    fingerprint: str
    outcome: Outcome
    #: Solver status string (``LPStatus``/``MIPStatus`` value), "" on timeout.
    solver_status: str = ""
    objective: float = float("nan")
    x: Optional[np.ndarray] = None
    #: Certified dual bound (== objective when optimal; finite on PARTIAL).
    best_bound: float = float("inf")
    #: Relative optimality gap (0 when optimal; finite on PARTIAL with
    #: an incumbent, and on certified heuristic answers).
    gap: float = float("inf")
    #: Solve mode this response was produced under (see the request).
    mode: str = "exact"
    arrival_time: float = 0.0
    dispatch_time: float = 0.0
    start_time: float = 0.0
    completion_time: float = 0.0
    #: Served from the result cache — the device was never touched.
    cached: bool = False
    #: Coalesced onto an identical request that was already queued.
    coalesced: bool = False
    #: Members in the dispatched batch (0 for cached/timeout responses).
    batch_size: int = 0
    #: Worker (device-group rank) that executed the batch, -1 if none.
    worker: int = -1
    #: Trace id inherited from the request (``req-000042``-style).
    trace_id: str = ""
    #: Crash-recovery re-dispatch rounds this request survived (0 = none).
    retries: int = 0
    #: Parametric near-duplicate answer (a warm dual-simplex re-solve
    #: from the stored basis, certificate-audited): "" (normal solve),
    #: "range" (it took zero pivots: the stored basis was still
    #: optimal), or "resolve" (it pivoted).
    warm: str = ""
    #: Full LP solver result when the member ran the solo-LP path
    #: (internal: seeds the parametric re-solve cache; not serialized).
    lp_result: Optional[object] = None

    @property
    def ok(self) -> bool:
        """True when the solver reached a terminal answer."""
        return self.outcome is Outcome.OK

    @property
    def queue_wait(self) -> float:
        """Simulated seconds spent queued before the batch was formed."""
        return self.dispatch_time - self.arrival_time

    @property
    def assembly_wait(self) -> float:
        """Batch formed → device start (waiting for a free worker)."""
        return self.start_time - self.dispatch_time

    @property
    def device_time(self) -> float:
        """Device start → completion."""
        return self.completion_time - self.start_time

    @property
    def latency(self) -> float:
        """End-to-end: arrival → completion."""
        return self.completion_time - self.arrival_time

    def readdressed(self, request: SolveRequest, **changes) -> "SolveResponse":
        """This answer, every field but the echo kept, addressed to
        ``request`` (a coalesced follower, or a cluster's own request)."""
        answer = {k: v for k, v in self.__dict__.items() if k not in _ECHO}
        answer.update(changes)
        return respond(request, **answer)

    def replay_for(
        self, request: SolveRequest, lookup_seconds: float
    ) -> "SolveResponse":
        """This stored answer, re-addressed to a later cache-hit request.

        It waits for the answer to exist (no time travel): completion
        is ``max(arrival, this completion) + lookup_seconds``.  It keeps
        the stored answer's ``mode`` (a heuristic request may replay an
        exact answer).
        """
        at = request.arrival_time
        return respond(
            request,
            outcome=self.outcome,
            solver_status=self.solver_status,
            objective=self.objective,
            x=self.x,
            best_bound=self.best_bound,
            gap=self.gap,
            mode=self.mode,
            dispatch_time=at,
            start_time=at,
            completion_time=max(at, self.completion_time) + lookup_seconds,
            cached=True,
        )

    def to_dict(self) -> dict:
        """JSON-friendly summary (:func:`repro.reporting.report_dict` shape).

        The serving surface has no strategy of its own (the worker pool
        picks the execution path), so ``strategy`` is ``None``; the
        serving-specific fields follow the shared core.
        """
        from repro.reporting import report_dict

        return report_dict(
            status=self.solver_status or self.outcome.value,
            objective=self.objective,
            strategy=None,
            mode=self.mode,
            trace_id=self.trace_id,
            best_bound=self.best_bound,
            gap=self.gap,
            outcome=self.outcome.value,
            request_id=self.request_id,
            cached=self.cached,
            coalesced=self.coalesced,
            warm=self.warm,
            batch_size=self.batch_size,
            worker=self.worker,
            retries=self.retries,
            timings={
                "queue_wait": self.queue_wait,
                "assembly_wait": self.assembly_wait,
                "device_time": self.device_time,
                "latency": self.latency,
            },
        )

    def raise_for_outcome(self) -> None:
        """Raise the typed error matching a non-OK outcome.

        No-op for OK and for PARTIAL — a partial response is a usable
        anytime answer (check :attr:`gap` to decide if it is enough).
        """
        if self.outcome is Outcome.TIMEOUT:
            raise RequestTimeout(self.request_id, self.queue_wait)
        if self.outcome is Outcome.FAILED:
            raise ServiceError(
                f"request {self.request_id} failed: "
                f"solver status {self.solver_status!r}"
            )
        if self.outcome is Outcome.SHED:
            raise ServiceError(
                f"request {self.request_id} was shed by SLO admission"
            )


#: What a response echoes of its request (``mode`` too, unless the
#: answer brings its own).
_ECHO = frozenset({"request_id", "fingerprint", "arrival_time", "trace_id"})


def respond(request: SolveRequest, **answer) -> SolveResponse:
    """A response addressed to ``request``: the one constructor.

    It echoes the request's id, fingerprint, arrival time, trace id and
    mode; ``answer`` holds the rest.  A replayed or re-addressed answer
    passes its own ``mode``, the one echo an answer may override.
    """
    answer.setdefault("mode", request.mode)
    return SolveResponse(
        request_id=request.request_id,
        fingerprint=request.fingerprint,
        arrival_time=request.arrival_time,
        trace_id=request.trace_id,
        **answer,
    )
