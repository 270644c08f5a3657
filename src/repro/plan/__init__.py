"""Residue of the deleted plan compiler: the two names that
``benchmarks/e2e/tracing.py`` resolves and raises on when missing.  Nothing
in ``src/`` imports this package; it goes with ROADMAP item 1a."""
