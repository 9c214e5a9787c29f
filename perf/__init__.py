"""The perf ledger: one benchmark, two clocks, five workloads (see README.md)."""
