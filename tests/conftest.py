"""Hypothesis profiles: ``ci`` draws the same examples on every run, so that
a property test that fails in CI fails the same way locally under
``HYPOTHESIS_PROFILE=ci``; without it, local runs draw fresh examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
