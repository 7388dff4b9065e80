import importlib

import pytest
from hypothesis import settings

from qsu2 import charts, coherent, comod
from qsu2.comod import VnComodule
from qsu2.ncalg import STD, AlgebraMap
from qsu2.scalars import q_pow

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
    # how monomials multiply (`Algebra.mul_mono`, or the table of a-d
    # middles it reads, `ncalg._ad_middle`) must neither meet an image
    # multiplied without its fault nor leave one behind
    caches = (AlgebraMap._power, AlgebraMap.image)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def fresh_steps():
    # each Manin step is certified once per process, and each V_k extends
    # the cached V_(k-1): a fault must neither meet a step certified or a
    # V_k built without it nor leave one behind
    comod._certified_step.cache_clear()
    VnComodule.cache_clear()
    yield
    comod._certified_step.cache_clear()
    VnComodule.cache_clear()


@pytest.fixture
def fresh_engine():
    # every cache that a fault in the products, the coaction matrices or
    # the Gram form can fill: a fault must neither meet a chart, map image,
    # matrix, certificate, Haar pair or operator built without it nor leave
    # one behind.  Yields the clearing, for a test that builds the sound
    # values first
    caches = (charts.chart, charts.cover, coherent.resolution_operator,
              haar_module.pair, AlgebraMap._power, AlgebraMap.image,
              comod._certified_step, VnComodule)

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield clear
    clear()


def _extend_with_flipped_manin_sign(t, n):
    # `_extend_coaction_matrix` with the Manin relation read as y x = q x y:
    # the factor of e_j' x is q^(n-1-j) in place of q^-(n-1-j).  V_1 is
    # unchanged (the exponent is 0 there); V_2 is not a corepresentation.
    G = STD.G
    a, b, c, d = (G.gen(g) for g in "abcd")
    out = [[G.zero()] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        src, gx, gy = (i, b, d) if i < n else (n - 1, a, c)
        for j, row in enumerate(t):
            x = row[src]
            if x:
                out[j][i] = out[j][i] + x * gy
                out[j + 1][i] = out[j + 1][i] + x * gx * q_pow(n - 1 - j)
    return out


@pytest.fixture
def flipped_manin_sign(monkeypatch):
    monkeypatch.setattr(comod, "_extend_coaction_matrix",
                        _extend_with_flipped_manin_sign)
    VnComodule.cache_clear()
    yield
    # the matrices built under the fault must not outlive it
    VnComodule.cache_clear()
