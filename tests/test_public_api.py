"""The package's exported names."""

import types

import cosmoflux


def test_all_is_exactly_the_public_names():
    # a name dropped from a module must leave __all__ too, and a public
    # import must not stay out of it
    assert all(hasattr(cosmoflux, name) for name in cosmoflux.__all__)
    public = [
        name
        for name, value in vars(cosmoflux).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(cosmoflux.__all__) == sorted(public)
