"""Span tracer: nesting, attributes, sim spans, and the disabled path."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    assert obs.active() is None, "a test leaked an active tracer"


def make_tracer():
    """Deterministic tracer: each clock read advances by 1s."""
    ticks = iter(range(10_000))
    return obs.Tracer(clock=lambda: float(next(ticks)))


class TestHostSpans:
    def test_nesting_links_parent_ids(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        outer = tracer.find("outer")[0]
        middle = tracer.find("middle")[0]
        inner = tracer.find("inner")[0]
        assert outer.parent_id == -1
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert tracer.children(outer) == [middle]
        assert tracer.children(middle) == [inner]

    def test_siblings_share_a_parent(self):
        tracer = make_tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        parent = tracer.find("parent")[0]
        assert [s.name for s in tracer.children(parent)] == ["a", "b"]

    def test_attrs_at_open_and_via_set(self):
        tracer = make_tracer()
        with tracer.span("work", category="lp", m=5) as sp:
            sp.set(status="optimal", iterations=3)
        span = tracer.find("work")[0]
        assert span.category == "lp"
        assert span.attrs == {"m": 5, "status": "optimal", "iterations": 3}

    def test_durations_are_clock_deltas(self):
        tracer = make_tracer()
        with tracer.span("t"):
            pass
        span = tracer.find("t")[0]
        assert span.duration == pytest.approx(1.0)
        assert span.timeline == obs.HOST

    def test_exception_unwinds_stack(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        # Both spans closed despite the exception; a new root nests cleanly.
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].parent_id == -1

    def test_event_is_instant(self):
        tracer = make_tracer()
        with tracer.span("solve"):
            tracer.event("refactorize", m=7)
        event = tracer.find("refactorize")[0]
        assert event.duration == 0.0
        assert event.parent_id == tracer.find("solve")[0].span_id


class TestSimSpans:
    def test_sim_span_records_verbatim(self):
        tracer = make_tracer()
        span = tracer.sim_span("gemv", 1.5, 0.25, "gpu0", category="kernel", m=8)
        assert span.timeline == obs.SIM
        assert span.start == 1.5 and span.duration == 0.25
        assert span.track == "gpu0"
        assert span.attrs == {"m": 8}

    def test_parent_chaining(self):
        tracer = make_tracer()
        parent = tracer.sim_span("request", 0.0, 1.0, "req-0")
        child = tracer.sim_span("queue", 0.0, 0.4, "req-0", parent_id=parent.span_id)
        assert tracer.children(parent) == [child]


class TestGlobalTracer:
    def test_disabled_by_default(self):
        assert obs.active() is None
        handle = obs.span("anything")
        assert handle is obs.NULL_SPAN
        with handle as sp:
            sp.set(ignored=True)
        obs.event("also-ignored")  # must not raise

    def test_tracing_scope_installs_and_restores(self):
        with obs.tracing() as tracer:
            assert obs.active() is tracer
            with obs.span("scoped"):
                pass
        assert obs.active() is None
        assert len(tracer.find("scoped")) == 1

    def test_tracing_restores_previous_tracer(self):
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                assert obs.active() is inner
            assert obs.active() is outer

    def test_enable_disable(self):
        tracer = obs.enable()
        try:
            assert obs.active() is tracer
        finally:
            obs.disable()
        assert obs.active() is None

    def test_trace_ids_unique(self):
        assert obs.next_trace_id() != obs.next_trace_id()


class TestInstrumentationIntegration:
    def test_mip_solve_produces_nested_tree(self):
        from repro.api import solve
        from repro.problems.knapsack import generate_knapsack

        with obs.tracing() as tracer:
            report = solve(generate_knapsack(8, seed=2))
        assert report.trace_id == tracer.trace_id
        root = tracer.find("mip.solve")[0]
        nodes = tracer.find("mip.node")
        assert nodes and all(s.parent_id == root.span_id for s in nodes)
        assert root.attrs["status"] == "optimal"
        # Node LPs nest under their node span.
        lp_spans = tracer.find("lp.solve") + tracer.find("lp.dual_resolve")
        node_ids = {s.span_id for s in nodes}
        assert lp_spans and any(s.parent_id in node_ids for s in lp_spans)

    def test_device_kernels_land_on_sim_timeline(self):
        from repro.device.gpu import Device
        from repro.device import kernels as K
        from repro.device.spec import V100

        with obs.tracing() as tracer:
            device = Device(V100)
            device._charge(K.gemv_kernel(64, 64), None)
            device.transfers.host_to_device(1024)
        kernel = tracer.find("gemv")[0]
        assert kernel.timeline == obs.SIM
        assert kernel.track == device.obs_track
        h2d = tracer.find("h2d")[0]
        assert h2d.attrs["nbytes"] == 1024

    def test_untraced_device_run_is_identical(self):
        from repro.device.gpu import Device
        from repro.device import kernels as K
        from repro.device.spec import V100

        def run():
            device = Device(V100)
            device._charge(K.gemv_kernel(64, 64), None)
            device._charge(K.trsv_kernel(64), None)
            return device.clock.now

        baseline = run()
        with obs.tracing():
            traced = run()
        assert run() == baseline  # disabled again afterwards
        assert traced == baseline  # tracing never perturbs simulated time
