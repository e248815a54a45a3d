"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci draws every property
test's examples from a fixed seed, so a failure in CI reproduces on
any machine with the same command."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
