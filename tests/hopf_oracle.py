"""The laws between algebra maps as degree scans: each law is evaluated on
every given word, f(w) == g(w), and the convolution with the antipode is
built from NCPoly products and sums.  The words are given, so the same
oracle runs on the basis words up to a degree and on the old seeded sample
words (`rewriting_oracle.sample_words`).

The engine decides these laws on the generators, in every degree, with the
relation checks of the maps they apply to a product
(`qsu2.hopf.generator_law`).  The scans are kept here only as oracles for
`verify_hopf`, `verify_pi_hopf_map` and the chart laws of `verify_chart`
(tests/test_hopf.py), so they share neither `generator_law` nor the
accumulating convolution with the code under test.  Every structure map is
read at call time, so a fault installed on the engine reaches the oracle.
"""

from __future__ import annotations

from qsu2 import charts
from qsu2.hopf import _corrupted, _standard, hopf_B, hopf_G, pi_map
from qsu2.ncalg import NCPoly, STD, apply_tensor_map, star
from qsu2.report import check
from qsu2.scalars import ONE


def convolve_antipode(hopf, p, side):
    """mu(S (x) id) Delta(p) for side='left', mu(id (x) S) for 'right'."""
    out = hopf.alg.zero()
    for mono, c in hopf.delta(p).terms.items():
        m1, m2 = hopf.T2.split_mono(mono)
        p1 = NCPoly(hopf.alg, {m1: ONE})
        p2 = NCPoly(hopf.alg, {m2: ONE})
        if side == "left":
            out = out + hopf.antipode(p1) * p2 * c
        else:
            out = out + p1 * hopf.antipode(p2) * c
    return out


def _scan(name, anchor, words, fn):
    bad = next((w for w in words if not fn(w)), None)
    return check(name, bad is None, anchor, bad)


def verify_hopf(which, words, corrupt_delta=False):
    hopf = _corrupted(which) if corrupt_delta else _standard(which)
    alg = hopf.alg
    checks = []

    def run(name, anchor, fn):
        checks.append(_scan(name, anchor, words, fn))

    def eta_eps(w):
        return alg.scalar(hopf.counit(w))

    delta, eps = hopf.delta.image, hopf.eps.image
    checks.append(check(f"{which}.delta_algebra_map",
                        not hopf.delta.check_relations(),
                        "coproduct preserves the defining relations"))
    run(f"{which}.coassociativity",
        "(Delta x id)Delta = (id x Delta)Delta",
        lambda w: apply_tensor_map(hopf.delta(w), [delta, None], hopf.T3)
        == apply_tensor_map(hopf.delta(w), [None, delta], hopf.T3))
    run(f"{which}.counit_law",
        "(eps x id)Delta = id = (id x eps)Delta",
        lambda w: all(apply_tensor_map(hopf.delta(w), images, alg) == w
                      for images in ([eps, None], [None, eps])))
    if hopf.antipode is None:
        checks.append(check(f"{which}.antipode_convolution", False,
                            "mu(S x id)Delta = eta eps = mu(id x S)Delta",
                            f"no antipode solution on {hopf.name}: "
                            f"{hopf.antipode_failure}"))
    else:
        run(f"{which}.antipode_convolution",
            "mu(S x id)Delta = eta eps = mu(id x S)Delta",
            lambda w: convolve_antipode(hopf, w, "left") == eta_eps(w)
            and convolve_antipode(hopf, w, "right") == eta_eps(w))
    checks.append(check(f"{which}.antipode_unique_in_ansatz",
                        hopf.antipode_unique,
                        "antipode derived by solving the convolution identity"))
    if alg is STD.G:
        star_image = STD.star.image
        run(f"{which}.star_coproduct",
            "Delta(a^*) = sum a_(1)^* x a_(2)^* (intended reading of Definition 3)",
            lambda w: hopf.delta(star(w)) == apply_tensor_map(
                hopf.delta(w), [star_image, star_image], hopf.T2))
        run(f"{which}.star_counit",
            "eps(a^*) = conj(eps(a))",
            lambda w: hopf.counit(star(w)) == hopf.counit(w))
        if hopf.antipode is not None:
            run(f"{which}.star_antipode_compat",
                "S(S(a^*)^*) = a (standard Hopf-* compatibility)",
                lambda w: hopf.antipode(star(hopf.antipode(star(w)))) == w)
    else:
        checks.append(check(f"{which}.star_axioms", None,
                            "Definition 3 (real form)",
                            "no involution: the ideal (b) is not star-stable, "
                            "so no star descends to the Borel quotient"))
    return checks


def verify_pi_hopf_map(words):
    """pi's compatibility with Delta, eps and S on every G word."""
    HB, HG, pi = hopf_B(), hopf_G(), pi_map()
    return [
        _scan("pi.coproduct_compat", "Delta_B pi = (pi x pi) Delta_G", words,
              lambda w: HB.delta(pi(w)) == apply_tensor_map(
                  HG.delta(w), [pi.image, pi.image], HB.T2)),
        _scan("pi.counit_compat", "eps_B pi = eps_G", words,
              lambda w: HB.eps(pi(w)) == HG.eps(w)),
        _scan("pi.antipode_compat", "S_B pi = pi S_G", words,
              lambda w: HB.antipode(pi(w)) == pi(HG.antipode(w))),
    ]


def chart_laws(ch, g_words, b_words):
    """`rho_B_restricts` on every G word and `gamma_comodule_map` on every
    B word, for one chart."""
    HB, HG, pi = hopf_B(), hopf_G(), charts.pi_map()
    return [
        _scan(f"{ch.name}.rho_B_restricts",
              "the localization map is a map of B-comodule algebras", g_words,
              lambda w: ch.rho_B(ch.iota(w)) == apply_tensor_map(
                  HG.delta(w), [ch.iota.image, pi.image], ch.target)),
        _scan(f"{ch.name}.gamma_comodule_map",
              "rho_S gamma = (gamma x id) Delta_B", b_words,
              lambda w: ch.rho_B(ch.gamma(w)) == apply_tensor_map(
                  HB.delta(w), [ch.gamma.image, None], ch.target)),
    ]
