import importlib

import pytest

# the package exports the function `haar`, which hides the module
haar_module = importlib.import_module("qsu2.haar")


@pytest.fixture
def fresh_pairs():
    # the table of monomial pairs holds the values of the functional it was
    # filled with: a recorded or faulty functional must neither meet a pair
    # integrated without it nor leave one behind
    haar_module.pair.cache_clear()
    yield
    haar_module.pair.cache_clear()
