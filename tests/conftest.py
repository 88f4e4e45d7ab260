"""Suite-wide setup.

When a Hypothesis property fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to explain the failure.  That module imports
``libcst``, whose import raises a ``DeprecationWarning`` from
``mypy_extensions``; the suite's ``error::DeprecationWarning`` filter would
turn it into a pytest INTERNALERROR that hides the falsifying example.  The
module is imported once here, with that warning ignored, so the plugin finds
it already loaded.  Without ``libcst`` there is nothing to load.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
