"""Tests for the package's export list."""

import kvprune


def test_every_export_resolves():
    missing = [name for name in kvprune.__all__ if not hasattr(kvprune, name)]
    assert missing == []
    assert len(set(kvprune.__all__)) == len(kvprune.__all__)


def test_star_import():
    namespace = {}
    exec("from kvprune import *", namespace)
    assert set(kvprune.__all__) <= set(namespace)
