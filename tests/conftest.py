import os

import hypothesis

# Numeric property tests run whole simulations inside hypothesis examples;
# the default 200 ms deadline is too tight for those on shared runners.
hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
)
hypothesis.settings.register_profile(
    "thorough", max_examples=500, deadline=None,
)
# HYPOTHESIS_PROFILE=thorough selects the longer run.
hypothesis.settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default"))
