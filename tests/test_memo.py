"""The memoized structure maps and the factorwise `apply_tensor_map`
against uncached per-monomial oracles, and the caches left by the
corrupted-Delta negative control."""

import functools
import itertools
import operator
import random
import sys

import pytest

from qsu2.charts import chart
from qsu2.hopf import _corrupted, hopf_B, hopf_G, pi_map, verify_hopf
from qsu2.ncalg import (AlgebraMap, NCPoly, STD, apply_tensor_map,
                        rewriting_certificate, star, tensor_elem)
from qsu2.scalars import ONE, QScalar
from rewriting_oracle import normal_form_of_word, random_word

G, B = STD.G, STD.B


def _map(amap):
    return amap, functools.partial(AlgebraMap.image.__wrapped__, amap)


# name -> (source, cached map, uncached image of one monomial)
MAPS = {
    "Delta[G]": (G, *_map(hopf_G().delta)),
    "Delta[B]": (B, *_map(hopf_B().delta)),
    "eps[G]": (G, *_map(hopf_G().eps)),
    "pi": (G, *_map(pi_map())),
    "gamma[b]": (B, *_map(chart("b").gamma)),
    "gamma[d]": (B, *_map(chart("d").gamma)),
    "iota[G_b]": (G, *_map(STD.inclusion(G, STD.Gb))),
    "iota[G_d]": (G, *_map(STD.inclusion(G, STD.Gd))),
    "iota[G_bd]": (G, *_map(STD.inclusion(G, STD.Gbd))),
    "S[G]": (G, *_map(hopf_G().antipode)),
    "S[B]": (B, *_map(hopf_B().antipode)),
    # the module function `star` in front of the uncached STD.star oracle
    "star": (G, star, functools.partial(AlgebraMap.image.__wrapped__,
                                        STD.star)),
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


GG, BB = STD.tensor(G, G), STD.tensor(B, B)
_D = chart("d")

# name -> (source, memoized per-monomial images, uncached per-monomial
# images, target); None is the identity factor
TENSOR_MAPS = {
    "pi x pi": (GG, [pi_map().image] * 2, [MAPS["pi"][2]] * 2, BB),
    "star x star": (GG, [STD.star.image] * 2, [MAPS["star"][2]] * 2, GG),
    "iota x pi": (GG, [_D.iota.image, pi_map().image],
                  [MAPS["iota[G_d]"][2], MAPS["pi"][2]], _D.target),
    "gamma x id": (BB, [_D.gamma.image, None], [MAPS["gamma[d]"][2], None],
                   _D.target),
    "Delta x id": (GG, [hopf_G().delta.image, None],
                   [MAPS["Delta[G]"][2], None], hopf_G().T3),
    "id x Delta": (GG, [None, hopf_G().delta.image],
                   [None, MAPS["Delta[G]"][2]], hopf_G().T3),
    "eps x id": (GG, [hopf_G().eps.image, None], [MAPS["eps[G]"][2], None],
                 G),
    "id x eps": (GG, [None, hopf_G().eps.image], [None, MAPS["eps[G]"][2]],
                 G),
}


def _legs(image):
    """An image as (coefficient, factor elements) pairs: one pair per
    monomial when it lies in a tensor product, its value and no factor
    when it lies in K, else the image itself."""
    alg = image.alg
    if alg is STD.K:
        return [(image.scalar_part(), [])]
    if not alg.factors:
        return [(ONE, [image])]
    return [(c, [NCPoly(f, {sub: ONE})
                 for f, sub in zip(alg.factors, alg.split_mono(mono))])
            for mono, c in image.terms.items()]


def _tensor_map_oracle(p, images, target):
    """Map each factor monomial on its own, then tensor_elem and add."""
    out = target.zero()
    for mono, c in p.terms.items():
        legs = []
        for f, sub, image in zip(p.alg.factors, p.alg.split_mono(mono),
                                 images):
            elem = NCPoly(f, {sub: ONE})
            legs.append(_legs(elem if image is None else image(sub)))
        for combo in itertools.product(*legs):
            coeff = functools.reduce(operator.mul, (cc for cc, _ in combo), c)
            parts = [x for _, xs in combo for x in xs]
            elem = tensor_elem(target, parts) if target.factors else parts[0]
            out = out + elem * coeff
    return out


@pytest.mark.parametrize("name", sorted(TENSOR_MAPS))
def test_apply_tensor_map_matches_factorwise_oracle(name):
    source, maps, images, target = TENSOR_MAPS[name]
    words = _words(source, count=60, degree=4)
    # differences of random words, so that image terms can cancel
    for w in (x - y for x, y in zip(words[::2], words[1::2])):
        expect = _tensor_map_oracle(w, images, target)
        got = apply_tensor_map(w, maps, target)
        assert got.alg is target
        assert got == expect, (name, w)
        got.terms.clear()
        got.terms[got.alg._zero_mono] = QScalar.coerce(7)
        assert apply_tensor_map(w, maps, target) == expect, (name, w)


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
    verify_hopf(which, corrupt_delta=True)
    caches = _caches()
    assert "qsu2.ncalg.AlgebraMap._power" in caches
    before = {k: f.cache_info().currsize for k, f in caches.items()}
    verify_hopf(which, corrupt_delta=True)
    after = {k: f.cache_info().currsize for k, f in caches.items()}
    assert after == before
    assert _corrupted(which) is _corrupted(which)


# every functools cache in qsu2, by the function it wraps: a new one is
# added here on purpose, not by the way
CACHED = {
    "qsu2.charts.chart", "qsu2.charts.coaction_B", "qsu2.charts.cover",
    "qsu2.coherent._lemma_side", "qsu2.coherent._zeta_power",
    "qsu2.coherent.qbeta_check",
    "qsu2.coherent.ramanujan_qbeta", "qsu2.coherent.resolution_operator",
    "qsu2.comod.VnComodule", "qsu2.comod._certified_step",
    "qsu2.haar.pair",
    "qsu2.hopf._corrupted", "qsu2.hopf.basis_words",
    "qsu2.ncalg._ad_middle", "qsu2.ncalg.Algebra.basis_monomials",
    "qsu2.ncalg.AlgebraMap._power", "qsu2.ncalg.AlgebraMap.image",
    "qsu2.ncalg._Standard.inclusion", "qsu2.ncalg._Standard.tensor",
    "qsu2.scalars._jackson_lcm", "qsu2.scalars._jackson_weights",
    "qsu2.scalars.gauss_row",
    "qsu2.scalars.q_pow",
}


def test_rewriting_certificate_keeps_its_tables_to_one_call():
    # the certificate's product tables are its own: no new functools
    # cache, and a repeated call adds nothing to the existing ones
    rewriting_certificate(G, 5)
    caches = _caches()
    assert {f"{f.__module__}.{f.__qualname__}"
            for f in caches.values()} <= CACHED
    before = {k: f.cache_info().currsize for k, f in caches.items()}
    rewriting_certificate(G, 5)
    assert {k: f.cache_info().currsize for k, f in caches.items()} == before
