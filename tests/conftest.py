"""Suite-wide test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, have no per-example
# time limit (timings on a loaded host would make them flaky) and keep no
# example database, so the suite's verdict is reproducible.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")
