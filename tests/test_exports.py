"""The package's export list: every name in discosc.__all__ resolves, and
none is listed twice."""

import collections

import discosc


def test_every_exported_name_resolves_and_appears_once():
    names = discosc.__all__
    twice = [n for n, k in collections.Counter(names).items() if k > 1]
    assert not twice, twice
    missing = [n for n in names if not hasattr(discosc, n)]
    assert not missing, missing
