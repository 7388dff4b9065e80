"""The second rewriting engine, kept as an oracle for `qsu2.ncalg`.

A word is a list of (generator index, exponent) segments with a scalar
coefficient.  `normal_form_of_word` multiplies the segments as NCPolys with
the engine's product; the randomized rewriter here applies one randomly
chosen redex at a time and must converge to the same canonical polynomial.
`confluence_probe` compares the two on seeded random words.

The engine itself certifies its normal forms on a basis
(`qsu2.ncalg.rewriting_certificate`); this module was its sampled check
and now serves the tests only, together with `random_word`,
`normal_form_of_word` and `sample_words`, the seeded inputs the checks
used to draw.  `rewriting_certificate` here is the certificate as it was
before it built its witness strings only on failure: the oracle for the
one in `qsu2.ncalg`.
"""

from __future__ import annotations

import random

from qsu2.ncalg import Algebra, DomainError, NCPoly, STD
from qsu2.scalars import ONE, Q, ZERO, q_pow


def _word_cleanup(word):
    out = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append((g, e))
    return out


def _find_redexes(alg: Algebra, word):
    """All single-step rewrites available on a word."""
    redexes = []
    ad = alg.ad_pair
    for pos in range(len(word)):
        g, e = word[pos]
        if g in alg.elim_gen and e != 0:
            redexes.append(("elim", pos))
    for pos in range(len(word) - 1):
        (g1, e1), (g2, e2) = word[pos], word[pos + 1]
        if g1 == g2:
            continue
        if ad and {g1, g2} == set(ad) and not alg.elim_gen:
            redexes.append(("adpair", pos))
        elif g1 > g2 and (g2, g1) in alg.comm:
            redexes.append(("swap", pos))
    if ad and not alg.elim_gen:
        ia, id_ = ad
        # separated a..d / d..a with only b,c between
        for p1 in range(len(word)):
            if word[p1][0] not in (ia, id_):
                continue
            for p2 in range(p1 + 1, len(word)):
                g2 = word[p2][0]
                if g2 in (ia, id_):
                    if {word[p1][0], g2} == {ia, id_} and p2 > p1 + 1:
                        redexes.append(("transport", p1, p2))
                    break
    return redexes


def _apply_redex(alg: Algebra, word, coeff, redex):
    """Apply one redex; returns a list of (word, coeff) branches."""
    kind = redex[0]
    if kind == "swap":
        pos = redex[1]
        (g1, e1), (g2, e2) = word[pos], word[pos + 1]
        c = alg.comm[(g2, g1)]  # g1 > g2 here
        new = word[:pos] + [(g2, e2), (g1, e1)] + word[pos + 2:]
        return [(_word_cleanup(new), coeff * q_pow(c * e1 * e2))]
    if kind == "elim":
        pos = redex[1]
        g, e = word[pos]
        if e < 0:
            raise DomainError("negative power of an eliminated generator")
        out = []
        for c, mono in alg.elim_gen[g]:
            seg = [(i, x) for i, x in enumerate(mono) if x]
            out.append((_word_cleanup(word[:pos] + seg +
                                      ([(g, e - 1)] if e != 1 else []) +
                                      word[pos + 1:]), coeff * c))
        return out
    ia, id_ = alg.ad_pair
    ib, ic = ia + 1, ia + 2
    if kind == "adpair":
        pos = redex[1]
        (g1, e1), (g2, e2) = word[pos], word[pos + 1]
        left = [(g1, e1 - 1)] if e1 > 1 else []
        right = [(g2, e2 - 1)] if e2 > 1 else []
        pre, post = word[:pos], word[pos + 2:]
        if g1 == ia:  # a d -> 1 + q b c
            br1 = (_word_cleanup(pre + left + right + post), coeff)
            br2 = (_word_cleanup(pre + left + [(ib, 1), (ic, 1)] + right + post),
                   coeff * Q)
        else:  # d a -> 1 + q^-1 b c
            br1 = (_word_cleanup(pre + left + right + post), coeff)
            br2 = (_word_cleanup(pre + left + [(ib, 1), (ic, 1)] + right + post),
                   coeff * q_pow(-1))
        return [br1, br2]
    if kind == "transport":
        # move one unit of the right member left to adjacency
        p1, p2 = redex[1], redex[2]
        gR, eR = word[p2]
        qexp = 0
        for g, e in word[p1 + 1:p2]:
            lo, hi = min(g, gR), max(g, gR)
            c = alg.comm[(lo, hi)]
            # moving gR (one unit) left past g^e
            qexp += -c * e if gR > g else c * e
        new = (word[:p1 + 1] + [(gR, 1)] + word[p1 + 1:p2] +
               ([(gR, eR - 1)] if eR != 1 else []) + word[p2 + 1:])
        return [(_word_cleanup(new), coeff * q_pow(qexp))]
    raise AssertionError(kind)


def _rewrite_random(alg: Algebra, word, rng, max_steps=200000):
    """Fully reduce by randomly chosen redexes; returns a term dict."""
    work = [(_word_cleanup(list(word)), ONE)]
    done = {}
    steps = 0
    while work:
        idx = rng.randrange(len(work))
        w, c = work[idx]
        redexes = _find_redexes(alg, w)
        if not redexes:
            work.pop(idx)
            mono = [0] * alg.n
            for g, e in w:
                mono[g] += e
            mono = tuple(mono)
            done[mono] = done.get(mono, ZERO) + c
            continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError("rewriting did not terminate within bounds")
        redex = redexes[rng.randrange(len(redexes))]
        work.pop(idx)
        work.extend(_apply_redex(alg, w, c, redex))
    return {m: c for m, c in done.items() if c}


def random_word(alg: Algebra, rng: random.Random, max_degree: int,
                max_segments: int = 6):
    """A random word within the filtration-degree budget."""
    word = []
    budget = max_degree
    for _ in range(rng.randrange(1, max_segments + 1)):
        if budget <= 0:
            break
        i = rng.randrange(alg.n)
        lo = -min(3, budget) if i in alg.invertible else 1
        hi = min(3, budget)
        e = 0
        while e == 0:
            e = rng.randint(lo, hi)
        word.append((i, e))
        budget -= abs(e)
    return word or [(0, 1)]


def normal_form_of_word(alg: Algebra, word, coeff=ONE) -> NCPoly:
    """The engine's normal form of coeff times the word: the product of its
    segments as NCPolys."""
    p = alg.scalar(coeff)
    for i, e in word:
        g = alg.gens[i]
        if e < 0 and i not in alg.invertible:
            raise DomainError(f"negative exponent on {g}")
        p = p * alg.gen(g, 1) ** e if i in alg.elim_gen else p * alg.gen(g, e)
    return p


def confluence_probe(alg: Algebra, samples: int, degree: int, seed: int = 0):
    """Reduce random words by two independently randomized rule orders and
    by the engine; report any pair of distinct normal forms."""
    rng = random.Random(seed)
    discrepancies = []
    checked = 0
    for k in range(samples):
        word = random_word(alg, rng, degree)
        engine = normal_form_of_word(alg, word)
        r1 = _rewrite_random(alg, list(word), random.Random(rng.randrange(2 ** 30)))
        r2 = _rewrite_random(alg, list(word), random.Random(rng.randrange(2 ** 30)))
        checked += 1
        nf1, nf2 = NCPoly(alg, r1), NCPoly(alg, r2)
        ok = engine == nf1 == nf2
        basis_ok = True
        for p in (engine, nf1, nf2):
            for mono in p.terms:
                try:
                    alg.check_mono(mono)
                except DomainError:
                    basis_ok = False
        if not (ok and basis_ok):
            discrepancies.append({
                "word": [(alg.gens[g], e) for g, e in word],
                "engine": str(engine),
                "random_1": str(nf1),
                "random_2": str(nf2),
                "basis_ok": basis_ok,
            })
    return {
        "algebra": alg.name,
        "samples": checked,
        "degree": degree,
        "seed": seed,
        "discrepancies": discrepancies,
        "passed": not discrepancies,
    }


def sample_words(alg: Algebra, degree: int, samples: int, seed: int):
    """The generators followed by `samples` seeded random words: the word
    lists the Hopf and chart laws were once checked on."""
    rng = random.Random(seed)
    out = [normal_form_of_word(alg, [(i, 1)]) for i in range(alg.n)]
    for _ in range(samples):
        out.append(normal_form_of_word(alg, random_word(alg, rng, degree)))
    return out


def rewriting_certificate(alg: Algebra, degree: int):
    """Evidence, up to total degree max(degree, 1), that the canonical
    monomials of `alg` are a basis of the algebra its relations present:
    the first associativity and canonical-form witnesses, None where all
    holds, and the failed relations."""
    top = max(degree, 1) - 1
    factors = [(g, alg.gen(g)) for g in alg.gens]
    factors += [(f"{alg.gens[i]}^-1", alg.gen(alg.gens[i], -1))
                for i in sorted(alg.invertible)]
    monos = alg.basis_monomials(top)
    unit = {m: NCPoly(alg, {m: ONE}) for m in monos}
    times = {}  # (y, name of g) -> y g
    associativity = canonical = None

    def noncanonical(p, where):
        for m in p.terms:
            try:
                alg.check_mono(m)
            except DomainError:
                return f"{alg.mono_str(m)} in {where}"
        return None

    # x = 1 or y = 1 makes both sides the same product, so monos[0] = 1
    # is left out
    for x in monos[1:]:
        for y in monos[1:]:
            if alg.mono_degree(x) + alg.mono_degree(y) > top:
                break
            xy = unit[x] * unit[y]
            where = f"({alg.mono_str(x)}) ({alg.mono_str(y)})"
            canonical = canonical or noncanonical(xy, where)
            for name, g in factors:
                if (y, name) not in times:
                    times[y, name] = unit[y] * g
                    canonical = canonical or noncanonical(
                        times[y, name], f"({alg.mono_str(y)}) {name}")
                lhs = xy * g
                canonical = canonical or noncanonical(lhs, f"{where} {name}")
                if associativity is None and lhs != unit[x] * times[y, name]:
                    associativity = (
                        f"(x y) g != x (y g) for x = {alg.mono_str(x)}, "
                        f"y = {alg.mono_str(y)}, g = {name}")
    relations = STD.inclusion(alg, alg).check_relations()
    for name, g in factors[alg.n:]:
        base = name[:-len("^-1")]
        if not (alg.gen(base) * g == alg.one() == g * alg.gen(base)):
            relations.append(f"{base} {name} = 1 = {name} {base}")
    return {"associativity": associativity, "canonical": canonical,
            "relations": relations}
