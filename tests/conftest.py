"""Test-suite settings: hypothesis runs derandomized with a bounded budget,
so every property test is deterministic and its wall time is fixed."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=20)
settings.load_profile("tier1")
