"""`Algebra.mul_mono` as `qsu2.ncalg` ran it before its flat kernel, and
`tensor_elem` and `apply_tensor_map` as they ran before the engine built
every tensor monomial in one loop, kept here only as oracles
(tests/test_ncalg.py).

`merge` is the nested loop over generator pairs that looks up each
commutation exponent with `comm.get`; `mul_mono` multiplies the factors of
a tensor product on the monomial pieces `split_mono` cuts at the factor
offsets, and scales each coefficient by a `q_pow` product.  The a-d
rewriting keeps its `q_pow` products as well: `da_expand` is the
recursion for d^t a^k and `reduce_ordered` the stack that peels one a and
one d at a time off a^k X d^t, the two ways the engine applied the a-d
rules before it read both words from one table of closed forms.
`ad_middle` is that table as the engine first built it, a ladder of
middles one factor (1 + q^(sign (1+2i)) b c) at a time, before it read
the q-binomial theorem off one Gaussian-binomial row.  No product code is
shared with the engine.  A tensor monomial is joined here
(`join_monos`), not by the engine.  `basis_monomials` is
`Algebra.basis_monomials` as it was before it enumerated each degree
directly: it filters the whole exponent box.
"""

from __future__ import annotations

import itertools

from qsu2.ncalg import NCPoly
from qsu2.scalars import ONE, Q, ZERO, q_pow


def merge(alg, m1, m2):
    """q-exponent and merged exponents for m1*m2 with no a-d crossing."""
    e = 0
    for j in range(alg.n):
        y = m2[j]
        if not y:
            continue
        for i in range(j + 1, alg.n):
            x = m1[i]
            if x:
                c = alg.comm.get((j, i))
                if c is None:
                    raise AssertionError(
                        f"{alg.name}: illegal crossing "
                        f"{alg.gens[i]}/{alg.gens[j]}")
                if c:
                    e += x * y * c
    return e, tuple(a + b for a, b in zip(m1, m2))


def split_mono(alg, mono):
    out = []
    off = 0
    for f in alg.factors:
        out.append(tuple(mono[off:off + f.n]))
        off += f.n
    return tuple(out)


def join_monos(subs):
    """The monomial of a tensor product with the given factor monomials."""
    return tuple(itertools.chain.from_iterable(subs))


def da_expand(alg, t, k):
    """Normal form of d^t a^k in G-type algebras, as {mono: coeff}."""
    ia, id_ = alg.ad_pair
    ib, ic = ia + 1, ia + 2
    if t == 0 or k == 0:
        mono = [0] * alg.n
        mono[ia], mono[id_] = k, t
        return {tuple(mono): ONE}
    out = {}
    prev = da_expand(alg, t - 1, k - 1)
    for mono, c in prev.items():
        out[mono] = out.get(mono, ZERO) + c
    # d^(t-1) (q^-1 b c) a^(k-1): move bc right past a^(k-1), then each
    # prev term picks up bc moved left past its d-power
    base = q_pow(-1 - 2 * (k - 1))
    for mono, c in prev.items():
        m = list(mono)
        coeff = c * base * q_pow(-2 * m[id_])
        m[ib] += 1
        m[ic] += 1
        m = tuple(m)
        out[m] = out.get(m, ZERO) + coeff
    return {m: c for m, c in out.items() if c}


def ad_middle(m, sign):
    """The coefficients of (b c)^j, j = 0..m, in
    prod_(i<m) (1 + q^(sign (1+2i)) b c), one factor at a time."""
    row = (ONE,)
    for i in range(m):
        s = q_pow(sign * (1 + 2 * i))
        row = (row[0], *(row[j] + s * row[j - 1] for j in range(1, i + 1)),
               s * row[-1])
    return row


def reduce_ordered(alg, mono, coeff, acc):
    """Eliminate a-d co-occurrence in an ordered monomial into acc."""
    ia, id_ = alg.ad_pair
    ib, ic = ia + 1, ia + 2
    stack = [(mono, coeff)]
    while stack:
        m, c = stack.pop()
        if m[ia] > 0 and m[id_] > 0:
            qrs = q_pow(m[ib] + m[ic])
            m1 = list(m)
            m1[ia] -= 1
            m1[id_] -= 1
            stack.append((tuple(m1), c * qrs))
            m2 = list(m1)
            m2[ib] += 1
            m2[ic] += 1
            stack.append((tuple(m2), c * qrs * Q))
        else:
            acc[m] = acc.get(m, ZERO) + c


def mul_mono(alg, m1, m2, coeff, acc):
    """Accumulate coeff * m1 * m2 into the dict acc (canonical inputs)."""
    if alg.factors:
        partials = []
        for f, s1, s2 in zip(alg.factors, split_mono(alg, m1),
                             split_mono(alg, m2)):
            d = {}
            mul_mono(f, s1, s2, ONE, d)
            partials.append(list(d.items()))
        for combo in itertools.product(*partials):
            c = coeff
            for _, cc in combo:
                c = c * cc
            mono = join_monos([m for m, _ in combo])
            acc[mono] = acc.get(mono, ZERO) + c
        return
    if alg.ad_pair:
        ia, id_ = alg.ad_pair
        t1, k2 = m1[id_], m2[ia]
        if t1 > 0 and k2 > 0:
            left = list(m1)
            left[id_] = 0
            left = tuple(left)
            right = list(m2)
            right[ia] = 0
            right = tuple(right)
            for mid, cmid in da_expand(alg, t1, k2).items():
                e1, x = merge(alg, left, mid)
                e2, y = merge(alg, x, right)
                reduce_ordered(alg, y, coeff * cmid * q_pow(e1 + e2), acc)
            return
        e, y = merge(alg, m1, m2)
        if y[ia] > 0 and y[id_] > 0:
            reduce_ordered(alg, y, coeff * q_pow(e), acc)
        else:
            acc[y] = acc.get(y, ZERO) + coeff * q_pow(e)
        return
    e, y = merge(alg, m1, m2)
    acc[y] = acc.get(y, ZERO) + coeff * q_pow(e)


def tensor_elem(talg, parts):
    """The elementary tensor of the given factor elements."""
    out = {}
    for combo in itertools.product(*[list(p.terms.items()) for p in parts]):
        mono = join_monos([m for m, _ in combo])
        c = ONE
        for _, cc in combo:
            c = c * cc
        out[mono] = out.get(mono, ZERO) + c
    return NCPoly(talg, {m: c for m, c in out.items() if c})


def apply_tensor_map(p, images, target):
    """Apply images[k], a factor map's image of one monomial or None for
    the identity, to each tensor factor of p; a term that cancels is
    deleted as soon as it does."""
    out = {}
    for mono, c in p.terms.items():
        legs = [[(sub, None)] if image is None else image(sub).terms.items()
                for sub, image in zip(split_mono(p.alg, mono), images)]
        for combo in itertools.product(*legs):
            v = c
            for _, cc in combo:
                if cc is not None:
                    v = v * cc
            key = join_monos([m for m, _ in combo])
            v = out.get(key, ZERO) + v
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return NCPoly(target, out)


def basis_monomials(alg, max_degree):
    """The canonical monomials of degree <= max_degree, by (degree,
    monomial): every exponent vector in the box [-D, D] (invertible), [0, D]
    (other generators) or {0} (eliminated), filtered."""
    ranges = []
    for i in range(alg.n):
        if i in alg.elim_gen:
            ranges.append([0])
        elif i in alg.invertible:
            ranges.append(list(range(-max_degree, max_degree + 1)))
        else:
            ranges.append(list(range(0, max_degree + 1)))
    out = []
    for mono in itertools.product(*ranges):
        if sum(abs(e) for e in mono) > max_degree:
            continue
        if alg.ad_pair:
            ia, id_ = alg.ad_pair
            if mono[ia] > 0 and mono[id_] != 0:
                continue
        out.append(mono)
    out.sort(key=lambda m: (alg.mono_degree(m), m))
    return tuple(out)
