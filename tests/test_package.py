"""The package root exports what its ``__all__`` names."""

import weightpred


def test_every_exported_name_resolves():
    missing = [name for name in weightpred.__all__ if not hasattr(weightpred, name)]
    assert missing == []
