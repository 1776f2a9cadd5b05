import pytest

from gqlab import catalog


@pytest.fixture(scope="session")
def models():
    """Builtin examples, built once per session; tests that change an
    example build their own."""
    cache = {}

    def get(name, **params):
        key = (name, tuple(sorted(params.items())))
        if key not in cache:
            if name == "circle-flat":
                cache[key] = catalog.untwisted_circle_example()
            else:
                cache[key] = catalog.example(name, **params)
        return cache[key]

    return get
