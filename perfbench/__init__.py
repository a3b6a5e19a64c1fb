"""Benchmark harness for edgelab; see README.md in this directory."""
