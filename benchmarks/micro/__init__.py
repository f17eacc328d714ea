"""The per-layer micro ledger (``run.py``). A package so that pytest
tells its ``test_run`` module from ``benchmarks/paper``'s."""
