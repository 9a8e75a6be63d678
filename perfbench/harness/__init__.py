"""The benchmark's own code: workloads, layer tracing, calibration, metrics."""
