"""Set-up shared by every test module."""

import warnings

# On a failing example Hypothesis imports its patch writer, and with it
# libcst, whose import raises a mypy_extensions DeprecationWarning on some
# installs. filterwarnings = ["error"] turns that into an INTERNALERROR that
# ends the pytest run before the remaining tests run. Importing the writer once
# here, with that category ignored, leaves every filter on the tests as it is.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
