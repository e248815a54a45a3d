"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci draws every property
test's examples from a fixed seed, so a failure in CI reproduces on
any machine with the same command."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
# the long search of test_cli.py's drawn configs; stop it with a timeout
settings.register_profile("config-search", max_examples=1_000_000,
                          deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
