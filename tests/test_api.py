"""The package's exported names."""

import pcldetect


def test_every_exported_name_resolves_and_is_listed_once():
    names = pcldetect.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(pcldetect, n)] == []
