"""Settings every test module shares, loaded before any of them."""

import warnings

from hypothesis import settings

# each property draws the same examples on every run, seeded by the test
# itself, so two runs of the suite make the same calls
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# a failing property's report imports hypothesis.extra._patching, and its
# libcst import warns that mypy_extensions.TypedDict is deprecated: under
# -W error::DeprecationWarning that warning would end the session in an
# INTERNALERROR instead of the report, so the module is imported once
# here, with the warning ignored.  Without libcst the import fails and
# nothing warns: hypothesis's pytest plugin then reports without it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
