"""Suite-wide hypothesis settings."""

from hypothesis import Phase, settings

# No explain phase: after a failure it re-runs the test thousands of times to
# report which draws mattered, which takes minutes through the object-dtype
# oracles here, where shrinking to a minimal example takes seconds.
settings.register_profile("quasicause", phases=set(Phase) - {Phase.explain})
settings.load_profile("quasicause")
