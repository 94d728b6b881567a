"""Benchmark of the NOMAD reproduction; entry point perfbench/run.py."""
