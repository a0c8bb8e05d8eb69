"""Hypothesis profiles: ``ci`` draws the same examples on every run, so that
a property test that fails in CI fails the same way locally under
``HYPOTHESIS_PROFILE=ci``; without it, local runs draw fresh examples.
``ci-long`` is ``ci`` with 2,000 examples a test, for the box enclosure
fuzz, whose rounding rests on each platform's libm exp, cos and sin."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("ci-long", settings.get_profile("ci"), max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
