import rdars


def test_public_names_resolve_once():
    assert len(rdars.__all__) == len(set(rdars.__all__))
    missing = [name for name in rdars.__all__ if not hasattr(rdars, name)]
    assert missing == []
