"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without catching programming errors.
The hierarchy mirrors the major subsystems: linear algebra, the simulated
device, the simulated communicator, and the LP/MIP solvers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


class LinearAlgebraError(ReproError):
    """Base class for linear-algebra failures."""


class SingularMatrixError(LinearAlgebraError):
    """A factorization encountered an (numerically) singular matrix."""

    def __init__(self, stage: str, pivot: float = 0.0):
        self.stage = stage
        self.pivot = pivot
        super().__init__(f"singular matrix during {stage} (pivot={pivot:.3e})")


class NotPositiveDefiniteError(LinearAlgebraError):
    """Cholesky factorization of a matrix that is not positive definite."""


class ShapeError(LinearAlgebraError):
    """Operands have incompatible shapes."""


# ---------------------------------------------------------------------------
# Simulated device
# ---------------------------------------------------------------------------


class DeviceError(ReproError):
    """Base class for simulated-accelerator failures."""


class DeviceMemoryError(DeviceError):
    """Allocation exceeded the simulated device memory capacity."""

    def __init__(self, requested: int, free: int, capacity: int):
        self.requested = requested
        self.free = free
        self.capacity = capacity
        super().__init__(
            f"device out of memory: requested {requested} B, "
            f"free {free} B of {capacity} B"
        )


class InvalidHandleError(DeviceError):
    """A device-array handle was used after free, or on the wrong device."""


class StreamError(DeviceError):
    """Illegal stream/event operation (e.g. waiting on an unrecorded event)."""


# ---------------------------------------------------------------------------
# Simulated communicator
# ---------------------------------------------------------------------------


class CommError(ReproError):
    """Base class for simulated-MPI failures."""


class DeadlockError(CommError):
    """All ranks are blocked and no message can make progress."""


class RankError(CommError):
    """A rank index is out of range for the communicator."""


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


class SolverError(ReproError):
    """Base class for LP/MIP solver failures."""


class LPError(SolverError):
    """Linear-programming solver failure (not statuses: true failures).

    ``iterations`` counts the pivots the loop completed before it failed.
    """

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class MIPError(SolverError):
    """Mixed-integer solver failure."""


class ProblemFormatError(SolverError):
    """A problem definition (or MPS file) is malformed."""


# ---------------------------------------------------------------------------
# Solver health (repro.guard)
# ---------------------------------------------------------------------------


class GuardError(SolverError):
    """Base class for solver-health (``repro.guard``) failures."""


class SanitizeError(GuardError):
    """The problem sanitizer rejected an instance it cannot repair."""

    def __init__(self, issues):
        self.issues = list(issues)
        head = "; ".join(str(i) for i in self.issues[:3])
        more = len(self.issues) - 3
        if more > 0:
            head += f" (+{more} more)"
        super().__init__(f"problem rejected by sanitizer: {head}")


class NumericalInstabilityError(GuardError):
    """A watchdog declared an engine numerically unrecoverable.

    Raised only after the escalation ladder (rescale → switch engine) is
    exhausted; ``repro.api`` treats it like a device fault and walks the
    strategy degradation chain.
    """

    def __init__(self, engine: str, signal: str, detail: str = ""):
        self.engine = engine
        self.signal = signal
        tail = f": {detail}" if detail else ""
        super().__init__(
            f"engine {engine!r} numerically unstable ({signal}){tail}"
        )


class DeadlineExpired(GuardError):
    """A cooperative deadline budget ran out where no anytime answer exists.

    Engines that *can* return an anytime result do so with a
    ``TIME_LIMIT`` status instead; this error marks code paths (setup)
    where nothing partial has been computed yet.
    """

    def __init__(self, where: str, elapsed: float, budget: float):
        self.where = where
        self.elapsed = elapsed
        self.budget = budget
        super().__init__(
            f"deadline expired during {where}: "
            f"{elapsed:.6g}s elapsed of {budget:.6g}s budget"
        )


# ---------------------------------------------------------------------------
# Solve service (repro.serve)
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for solve-service (``repro.serve``) failures."""


class ServiceSaturated(ServiceError):
    """Admission control rejected a request because the queue is full."""

    def __init__(self, queue_depth: int, limit: int):
        self.queue_depth = queue_depth
        self.limit = limit
        super().__init__(
            f"service saturated: {queue_depth} requests queued "
            f"(admission limit {limit})"
        )


class RequestTimeout(ServiceError):
    """A queued request exceeded its per-request timeout before dispatch."""

    def __init__(self, request_id: int, waited: float):
        self.request_id = request_id
        self.waited = waited
        super().__init__(
            f"request {request_id} timed out after {waited:.6g}s in queue"
        )


class ServiceClosed(ServiceError):
    """An operation was issued against a service that has been shut down."""


# ---------------------------------------------------------------------------
# Fault injection (repro.faults)
# ---------------------------------------------------------------------------


class FaultError(ReproError):
    """Base class for injected-fault failures (``repro.faults``).

    ``fault_count`` carries the number of injected faults that are still
    unresolved when the error propagates; whichever recovery layer
    catches it must resolve them (recovered / tolerated / escaped) so
    the injector's accounting invariant holds.
    """

    def __init__(self, message: str, fault_count: int = 1):
        self.fault_count = fault_count
        super().__init__(message)


class KernelFaultError(FaultError):
    """A kernel launch failed and exhausted its in-place retry budget."""

    def __init__(self, kernel: str, attempts: int, fault_count: int = 1):
        self.kernel = kernel
        self.attempts = attempts
        super().__init__(
            f"kernel {kernel!r} failed {attempts} consecutive launches",
            fault_count=fault_count,
        )


class EccError(FaultError):
    """An uncorrectable ECC error: in-place retry cannot help."""

    def __init__(self, kernel: str, fault_count: int = 1):
        self.kernel = kernel
        super().__init__(
            f"uncorrectable ECC error during kernel {kernel!r}",
            fault_count=fault_count,
        )


class TransferFaultError(FaultError):
    """A host↔device transfer kept timing out or arriving corrupted."""

    def __init__(self, direction: str, kind: str, attempts: int, fault_count: int = 1):
        self.direction = direction
        self.kind = kind
        self.attempts = attempts
        super().__init__(
            f"{direction} transfer failed {attempts} attempts (last: {kind})",
            fault_count=fault_count,
        )


class RankLostError(FaultError):
    """A simulated MPI rank dropped out of the communicator."""

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"rank {rank} lost")


class SolverCrashError(FaultError):
    """The branch-and-bound driver was killed mid-search (node-kill site)."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"search killed at node {node_id}")


# ---------------------------------------------------------------------------
# Correctness tooling (repro.check)
# ---------------------------------------------------------------------------


class CheckError(ReproError):
    """Base class for correctness-tooling (``repro.check``) failures.

    Raised only when a caller asks a report to escalate
    (``report.raise_for_failures()``); the check functions themselves
    return reports instead of raising so fuzzing can keep going.
    """


class CertificateViolation(CheckError):
    """An exact-arithmetic certificate check failed on a returned solution."""

    def __init__(self, check: str, violation: float, tolerance: float):
        self.check = check
        self.violation = violation
        self.tolerance = tolerance
        super().__init__(
            f"certificate check {check!r} violated: "
            f"{violation:.6g} exceeds tolerance {tolerance:.6g}"
        )


class SolverDisagreement(CheckError):
    """Two solvers disagreed on one instance beyond tolerance."""

    def __init__(self, left: str, right: str, kind: str, delta: float):
        self.left = left
        self.right = right
        self.kind = kind
        self.delta = delta
        super().__init__(
            f"solvers {left!r} and {right!r} disagree on {kind} "
            f"(delta {delta:.6g})"
        )


class MetamorphicViolation(CheckError):
    """A property-preserving transform changed the optimum unexpectedly."""

    def __init__(self, transform: str, expected: float, actual: float):
        self.transform = transform
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"metamorphic transform {transform!r} expected optimum "
            f"{expected:.6g}, solver returned {actual:.6g}"
        )
