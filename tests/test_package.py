import gdasum


def test_export_list_is_sorted_unique_and_resolves():
    names = gdasum.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(gdasum, name)]
    assert missing == []


def test_gdasum_train_names_the_module():
    # the package does not re-export the function train over its module
    import gdasum.train as train_module

    assert gdasum.train is train_module
    assert callable(train_module.train) and "train" not in gdasum.__all__
