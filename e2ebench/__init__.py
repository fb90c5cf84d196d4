"""End-to-end benchmark of the vGPRS reproduction.

Four workloads (signalling, voice, lifecycle, served) driven through
repro's public API; end-to-end host metrics per workload and per-layer
attribution from a cProfile round.  See ``README.md`` in this directory.
"""
