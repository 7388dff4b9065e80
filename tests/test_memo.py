"""The memoized structure maps against their uncached per-monomial helpers,
and the caches left by the corrupted-Delta negative control."""

import functools
import operator
import random
import sys

import pytest

from qsu2.charts import chart
from qsu2.hopf import (HopfAlgebra, _corrupted, hopf_B, hopf_G, pi_map,
                       verify_hopf)
from qsu2.ncalg import (AlgebraMap, STD, _star_image, normal_form_of_word,
                        random_word, star)
from qsu2.scalars import QScalar

G, B = STD.G, STD.B


def _map(amap):
    return amap, functools.partial(AlgebraMap._image.__wrapped__, amap)


def _antipode(hopf):
    return hopf.antipode, functools.partial(
        HopfAlgebra._antipode_image.__wrapped__, hopf)


# name -> (source, cached map, uncached image of one monomial)
MAPS = {
    "Delta[G]": (G, *_map(hopf_G().delta)),
    "Delta[B]": (B, *_map(hopf_B().delta)),
    "pi": (G, *_map(pi_map())),
    "gamma[b]": (B, *_map(chart("b").gamma)),
    "gamma[d]": (B, *_map(chart("d").gamma)),
    "iota[G_b]": (G, *_map(STD.localization_embedding(STD.Gb))),
    "iota[G_d]": (G, *_map(STD.localization_embedding(STD.Gd))),
    "iota[G_bd]": (G, *_map(STD.localization_embedding(STD.Gbd))),
    "S[G]": (G, *_antipode(hopf_G())),
    "S[B]": (B, *_antipode(hopf_B())),
    "star": (G, star, functools.partial(_star_image.__wrapped__, G)),
}


def _words(alg, count=50, degree=4, seed=11):
    rng = random.Random(seed)
    return [normal_form_of_word(alg, random_word(alg, rng, degree))
            for _ in range(count)]


@pytest.mark.parametrize("name", sorted(MAPS))
def test_cached_map_matches_uncached_helper(name):
    source, cached, image = MAPS[name]
    for w in _words(source):
        expect = functools.reduce(
            operator.add, (image(mono) * c for mono, c in w.terms.items()))
        got = cached(w)
        assert got == expect, (name, w)
        # a returned value owns its terms: writing into them leaves the
        # next call, and so the shared per-monomial images, unchanged
        got.terms.clear()
        got.terms[got.alg._zero_mono] = QScalar.coerce(7)
        assert cached(w) == expect, (name, w)


def _caches():
    """Every functools cache in qsu2: module functions and methods."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("qsu2"):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                out[f"{modname}.{attr}"] = obj
            elif isinstance(obj, type) and obj.__module__ == modname:
                for key, member in vars(obj).items():
                    if hasattr(member, "cache_info"):
                        out[f"{modname}.{attr}.{key}"] = member
    return out


@pytest.mark.parametrize("which", ["G", "B"])
def test_negative_control_adds_nothing_on_repeat(which):
    verify_hopf(which, degree=2, samples=5, seed=0, corrupt_delta=True)
    caches = _caches()
    assert "qsu2.ncalg.AlgebraMap._power" in caches
    before = {k: f.cache_info().currsize for k, f in caches.items()}
    verify_hopf(which, degree=2, samples=5, seed=0, corrupt_delta=True)
    after = {k: f.cache_info().currsize for k, f in caches.items()}
    assert after == before
    assert _corrupted(which) is _corrupted(which)
