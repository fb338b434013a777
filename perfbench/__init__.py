"""The benchmark: four workloads, end-to-end and per-layer metrics (see README.md)."""
