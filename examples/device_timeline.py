"""Tracing a solver's kernel stream on the simulated device.

Solves one LP relaxation through the metered path under ``repro.obs``
tracing — every kernel the device charges lands as a span on the
simulated timeline — and prints the first slice of the timeline plus the
per-kernel utilization breakdown: the view a performance engineer would
use to see where §5.1's time actually goes.

Run:  python examples/device_timeline.py
"""

from repro import obs
from repro.device import Device, V100
from repro.lp.warm import solve_lp
from repro.problems import generate_knapsack
from repro.reporting import format_seconds, render_table
from repro.strategies.engine import DeviceCostHook

problem = generate_knapsack(16, seed=4)
device = Device(V100)

with obs.tracing() as tracer:
    result = solve_lp(problem.relaxation(), hook=DeviceCostHook(device, mode="dense"))
assert result.ok

print(f"LP optimum {result.objective:.2f} in {result.iterations} simplex iterations")
print(f"simulated device time: {format_seconds(device.clock.now)}\n")

kernels = [s for s in tracer.spans if s.timeline == obs.SIM]
print("first 12 timeline events:")
for span in kernels[:12]:
    print(f"  {format_seconds(span.start):>10}  +{format_seconds(span.duration):<10} {span.name}")

print("\nutilization by kernel:")
rows = [
    (name, count, format_seconds(total), f"{100 * total / device.clock.now:.1f}%")
    for _, name, count, total, _, _ in obs.summarize_spans(kernels)
]
print(render_table(["kernel", "launches", "busy time", "share"], rows))
