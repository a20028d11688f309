"""A benchmark of the ScoRD reproduction; ``run.py`` is its command."""
