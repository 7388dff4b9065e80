import importlib

import pytest
from hypothesis import settings

from qsu2.ncalg import AlgebraMap

# no per-example deadline for any property test: the first example to
# reach a process-wide cache fills it, and can take far longer than its
# replay, which hypothesis would report as a flaky failure
settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")

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


@pytest.fixture
def fresh_maps():
    # `AlgebraMap._power` and `AlgebraMap.image` keep, process-wide, the
    # products each map's images were multiplied with: a test that changes
    # how monomials multiply (`Algebra.mul_mono`, `_da_expand`,
    # `_reduce_ordered`) must neither meet an image multiplied without its
    # fault nor leave one behind
    caches = (AlgebraMap._power, AlgebraMap.image)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
