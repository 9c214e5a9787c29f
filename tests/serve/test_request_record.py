"""One request record: a request carries its keys, and no tier re-derives them.

The placement key (an LP's structure fingerprint, a MIP's content
fingerprint) is hashed at its first read and rides on every
``dataclasses.replace`` copy; the bucket a request is filed under holds
its lockstep verdict.  The properties run over the cluster's S2 pool,
small MIPs and random boxed LPs with equality rows; the count tests pin
that one cold LP hashes its structure once, wherever it is served.

Both fingerprints hash their byte stream in one call.  A frozen copy of
the array-at-a-time hashing they replaced (``_reference_*`` below) holds
every key to its old value, and fingerprint equality holds exactly when
the arrays are equal.
"""

import dataclasses
import hashlib
from typing import Optional

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import repro.serve.request as request_module
import repro.serve.service as service_module
from repro.cluster import ClusterService, s2_pool
from repro.lp.batch_simplex import lockstep_compatible
from repro.lp.problem import ARRAYS, LinearProgram
from repro.mip.problem import MIPProblem
from repro.serve import SolveService, mip_pool
from repro.serve.batching import bucket_key, lockstep_bucket
from repro.serve.request import fingerprint, prepare_request, structure_fingerprint

S2 = s2_pool(32)
MIPS = mip_pool(8, num_items=6, seed=3)


@st.composite
def boxed_lps(draw):
    """Small LPs with boxes, equality rows and either sign of rhs."""
    n = draw(st.integers(1, 4))
    m_ub = draw(st.integers(0, 3))
    m_eq = draw(st.integers(0, 2))
    coef = st.integers(-3, 3).map(float)

    def matrix(rows):
        if not rows:
            return None
        entries = draw(st.lists(coef, min_size=rows * n, max_size=rows * n))
        return np.array(entries).reshape(rows, n)

    def vector(size, values):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    bound = st.sampled_from([0.0, -1.0, 2.0])
    return LinearProgram(
        c=vector(n, coef),
        a_ub=matrix(m_ub),
        b_ub=vector(m_ub, coef) if m_ub else None,
        a_eq=matrix(m_eq),
        b_eq=vector(m_eq, coef) if m_eq else None,
        lb=vector(n, bound),
        ub=vector(n, st.sampled_from([3.0, 5.0, np.inf])),
    )


problems = st.one_of(st.sampled_from(S2), st.sampled_from(MIPS), boxed_lps())


# -- the keys' reference: one ``digest.update`` per header and per array -------


def _reference_feed(digest, tag: str, arr: Optional[np.ndarray]) -> None:
    if arr is None:
        digest.update(f"{tag}:none;".encode())
        return
    digest.update(f"{tag}:{arr.dtype.str}:{arr.shape};".encode())
    digest.update(arr.tobytes())


def _reference_fingerprint(problem) -> str:
    digest = hashlib.sha256()
    kind = "mip" if isinstance(problem, MIPProblem) else "lp"
    digest.update(kind.encode())
    for tag in ARRAYS:
        _reference_feed(digest, tag, getattr(problem, tag))
    if kind == "mip":
        _reference_feed(digest, "integer", problem.integer)
    return digest.hexdigest()


def _reference_structure_fingerprint(problem: LinearProgram) -> str:
    digest = hashlib.sha256()
    digest.update(b"lp-structure")
    _reference_feed(digest, "a_ub", problem.a_ub)
    _reference_feed(digest, "a_eq", problem.a_eq)
    for tag, arr in (("lb", problem.lb), ("ub", problem.ub)):
        pattern = np.isfinite(np.asarray(arr, dtype=np.float64))
        digest.update(f"{tag}:{pattern.shape};".encode())
        digest.update(np.packbits(pattern).tobytes())
    return digest.hexdigest()


@given(problems)
def test_the_keys_keep_their_values(problem):
    assert fingerprint(problem) == _reference_fingerprint(problem)
    if isinstance(problem, LinearProgram):
        reference = _reference_structure_fingerprint(problem)
        assert structure_fingerprint(problem) == reference


def test_the_keys_keep_their_values_on_a_strided_block():
    # ``tobytes`` reads a Fortran-ordered or strided block in C order.
    a = np.arange(12.0).reshape(3, 4)
    for block in (a.T, a.T[:, ::-1]):
        lp = LinearProgram(c=np.ones(3), a_ub=block, b_ub=np.ones(4))
        assert not lp.a_ub.flags.c_contiguous
        assert fingerprint(lp) == _reference_fingerprint(lp)
        assert structure_fingerprint(lp) == _reference_structure_fingerprint(lp)


def _tags(problem):
    return ARRAYS + (("integer",) if isinstance(problem, MIPProblem) else ())


def _nudged(draw, problem):
    """``problem`` with one array entry moved (a MIP's mask bit flipped)."""
    present = [t for t in _tags(problem) if getattr(problem, t) is not None]
    tag = draw(st.sampled_from(present))
    arr = getattr(problem, tag).copy()
    i = draw(st.integers(0, arr.size - 1))
    if tag == "integer":
        arr.flat[i] = not arr.flat[i]
    elif tag == "lb":
        arr.flat[i] -= 1.0  # stays below ub
    else:
        arr.flat[i] += 1.0
    return dataclasses.replace(problem, **{tag: arr})


@st.composite
def problem_pairs(draw):
    """A problem and a copy, a one-entry nudge of it, or another draw."""
    first = draw(problems)
    how = draw(st.sampled_from(["copy", "nudge", "other"]))
    if how == "copy":
        fields = first.arrays(copy=True)
        if isinstance(first, MIPProblem):
            fields.update(integer=first.integer.copy(), name="renamed")
        return first, dataclasses.replace(first, **fields)
    if how == "nudge":
        return first, _nudged(draw, first)
    return first, draw(problems)


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(problem_pairs())
@example((MIPS[0], dataclasses.replace(MIPS[0], integer=np.zeros(MIPS[0].n, bool))))
def test_equal_fingerprints_mean_equal_arrays(pair):
    p, q = pair
    equal = type(p) is type(q) and all(
        _same(getattr(p, t), getattr(q, t)) for t in _tags(p)
    )
    assert (fingerprint(p) == fingerprint(q)) == equal


@given(problem_pairs())
def test_equal_structure_keys_mean_equal_matrices_and_bound_patterns(pair):
    p, q = pair
    if not (isinstance(p, LinearProgram) and isinstance(q, LinearProgram)):
        return
    equal = (
        _same(p.a_ub, q.a_ub)
        and _same(p.a_eq, q.a_eq)
        and np.array_equal(np.isfinite(p.lb), np.isfinite(q.lb))
        and np.array_equal(np.isfinite(p.ub), np.isfinite(q.ub))
    )
    assert (structure_fingerprint(p) == structure_fingerprint(q)) == equal


@given(problems)
def test_a_request_carries_its_keys(problem):
    request = prepare_request(problem)
    if isinstance(problem, MIPProblem):
        assert request.placement_key == fingerprint(problem)
    else:
        assert request.placement_key == structure_fingerprint(problem)
    assert request.fingerprint == fingerprint(problem)
    copy = dataclasses.replace(request, arrival_time=1.0, request_id=7)
    assert copy._placement == request.placement_key


@given(problems)
def test_the_bucket_holds_the_lockstep_verdict(problem):
    verdict = isinstance(problem, LinearProgram) and lockstep_compatible(problem)
    assert lockstep_bucket(bucket_key(problem)) == verdict


def _counting(monkeypatch):
    calls = []
    real = request_module.structure_fingerprint

    def counted(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(request_module, "structure_fingerprint", counted)
    return calls


def test_a_replaced_copy_does_not_rehash(monkeypatch):
    request = prepare_request(S2[0])
    calls = _counting(monkeypatch)
    key = request.placement_key
    copy = dataclasses.replace(request, request_id=3)
    assert copy.placement_key == key
    assert len(calls) == 1


def test_one_cold_lp_through_a_cluster_hashes_its_structure_once(monkeypatch):
    cluster = ClusterService(groups=2)
    calls = _counting(monkeypatch)
    rid = cluster.submit(S2[0], at=0.0)
    cluster.drain()
    response = cluster.result(rid)
    assert response.ok and not response.cached and not response.warm
    # Routed, looked up in its group's parametric cache, seeded there.
    groups = cluster._groups.values()
    assert sum(svc.parametric.misses for svc in groups) == 1
    assert sum(len(svc.parametric) for svc in groups) == 1
    assert len(calls) == 1


def test_one_cold_lp_through_a_service_hashes_its_structure_once(monkeypatch):
    service = SolveService()
    calls = _counting(monkeypatch)
    rid = service.submit(S2[0], at=0.0)
    service.drain()
    assert service.result(rid).ok
    assert len(service.parametric) == 1
    assert len(calls) == 1


def test_a_group_stamps_a_copy_of_the_clusters_request():
    cluster = ClusterService(groups=1)
    cluster.submit(S2[1], at=0.0)
    rid = cluster.submit(S2[2], at=1e-3)
    assignment = cluster._assignments[rid]
    svc = cluster._groups[assignment.gid]
    cluster.drain()
    request = assignment.request
    assert (request.request_id, request.arrival_time, request.trace_id) == (
        rid,
        1e-3,
        f"req-{rid:06d}",
    )
    # The group admitted its own copy: its id space, a later arrival.
    local = svc.result(assignment.local_rid)
    assert local.arrival_time > request.arrival_time
    assert local.trace_id == f"req-{assignment.local_rid:06d}"
    assert cluster.result(rid).arrival_time == request.arrival_time


def test_a_service_stamps_a_request_it_prepared_in_place(monkeypatch):
    service = SolveService()
    made = []
    real = request_module.prepare_request

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(service_module, "prepare_request", spy)
    rid = service.submit(S2[0], at=0.5)
    assert (made[0].request_id, made[0].arrival_time, made[0].trace_id) == (
        rid,
        0.5,
        f"req-{rid:06d}",
    )
