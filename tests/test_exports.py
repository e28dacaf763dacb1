import optpred


def test_all_names_resolve_once():
    names = optpred.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(optpred, name), name
