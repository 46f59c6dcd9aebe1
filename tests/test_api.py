"""The public names of the package."""

import maxec
import maxec.matching


def test_every_exported_name_resolves():
    assert len(set(maxec.__all__)) == len(maxec.__all__)
    for name in maxec.__all__:
        assert getattr(maxec, name) is not None, name


def test_general_matcher_is_gone():
    # the solver's final matching is the private solver._saturate now
    for name in ("BipartiteGraph", "max_bipartite_matching"):
        assert name not in maxec.__all__
        assert not hasattr(maxec, name)
        assert not hasattr(maxec.matching, name)
