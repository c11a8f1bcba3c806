"""Shared test settings: a reproducible hypothesis search when ``CI`` is set."""

import os

from hypothesis import settings

# Derandomized, so a push cannot pass or fail on the luck of the draw; a
# failure prints the blob that reproduces it with ``@reproduce_failure``.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
