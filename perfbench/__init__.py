"""Benchmark for occtree: seeded workloads, end-to-end metrics and an outside-in trace."""
