import gdasum


def test_export_list_is_sorted_unique_and_resolves():
    names = gdasum.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(gdasum, name)]
    assert missing == []
