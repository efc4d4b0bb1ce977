"""Benchmark of the TILL-Index serving stack (see ``perfbench/README.md``)."""
