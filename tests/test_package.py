import schurkit


def test_all_names_resolve():
    missing = [name for name in schurkit.__all__ if not hasattr(schurkit, name)]
    assert missing == []
    assert len(set(schurkit.__all__)) == len(schurkit.__all__)


def test_star_import():
    ns = {}
    exec("from schurkit import *", ns)
    assert set(schurkit.__all__) <= set(ns)
