"""The package's export list names only what it defines."""

import kalpha


def test_every_exported_name_resolves():
    missing = [name for name in kalpha.__all__ if not hasattr(kalpha, name)]
    assert missing == []
    assert len(set(kalpha.__all__)) == len(kalpha.__all__)


def test_star_import():
    namespace = {}
    exec("from kalpha import *", namespace)
    assert set(kalpha.__all__) <= set(namespace)
