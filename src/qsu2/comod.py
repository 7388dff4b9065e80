"""The Manin-plane comodules V_n, weight covectors, and the coinvariant
inner product.

V_n is spanned by the monomials x^i y^(n-i); elements are plain coefficient
lists over that basis.  A comodule is its coaction matrix t, and nothing
else: rho(v) = sum_j e_j (x) w_j is carried as its list of components
w_j = sum_i t[j][i] v_i in G, weight covectors are read from pi(t) entry by
entry, and an element of V_n (x) A is its list of A-components.  t is
built degree by degree, since x^i y^(n-i) = (x^i y^(n-1-i)) y and
x^n = x^(n-1) x in the Manin plane: each step multiplies every entry of
the V_(n-1) matrix by one generator of G (and the Manin factor q^-k), and
V_n is that one step from the cached V_(n-1), so a process builds each V_k
once.  The inner product is carried as a diagonal Gram matrix on the
monomial basis, which keeps everything inside the rational function field
(no square roots): the orthonormal-basis prefactors of the usual
presentation are absorbed into the Gram weights.

The coinvariance identity <w|z> 1 = sum <w0|z0> * (product of z1 and w1*)
admits two noncommutative orderings of the right-hand side.  The form used
everywhere is the star-first one, t* W t = W for W = diag(w) and
(t*)[k][i] = t[i][k]*.  `solve_coinvariant_gram` proves it by induction on
the Manin step, with no product of two degree-n elements and no Haar
integral (Woronowicz, Compact matrix pseudogroups, CMP 111 (1987);
Klimyk-Schmuedgen, Quantum Groups and Their Representations, ch. 4).  The
antipode law (the `hopf` suite) gives S(t) = t^-1 for every
corepresentation t, so unitarity for W, t W^-1 t* = W^-1, is the same as
t* W t = W and as t* W = W S(t).

`_certified_step(n)` is the whole certificate, run in the induction's
order: the base case first, then the steps 2..n.  The base case k = 0, 1:
the comodule axioms hold on V_k, G has an antipode, and for k = 1
t[i][k]* = S(t[k][i]) on V_1, the unitarity of V_1 for diag(1, 1).  The
step k = 2..n: let U = V_(k-1) (x) V_1, whose matrix has the entries
t[j][i] s[l][m] in that order, and W_U^-1 = W_(k-1)^-1 (x) 1.  U is
unitary for W_U^-1 by associativity and (xy)* = y* x* alone.  The Manin
product mu: U -> V_k, e_i' (x) y -> e_i and e_j' (x) x ->
q^-(k-1-j) e_(j+1), is a comodule map, t_k mu = mu t_U: `_step_defect`
reads the inner columns of V_k through x, and the tie compares V_k with
the whole extension of V_(k-1), which reads every column through y and
the last through x.  The coefficients of mu are real, so
t_k W^-1 t_k* = W^-1 for W^-1 = mu W_U^-1 mu^T.  That matrix is
diagonal, since each basis vector of U goes to a multiple of one e_i, and
its entries obey the q-Pascal rule [k, i] = [k-1, i] + q^-2(k-i) [k-1, i-1]
from the row [1, 1] of V_1: the weights are the inverse q^-2-binomials,
read off nothing.  Each case, the base case included, is certified once
per process, so V_n costs only the steps no smaller n has run.  Both
orders are still solved as full (n+1)^2 kernel systems for the misprint
ledger (`gram_order_report`), which needs the solution count in each.
"""

from __future__ import annotations

import functools

from . import linalg
from .hopf import hopf_G, pi_map
from .ncalg import DomainError, NCPoly, STD, star, tensor_elem
from .scalars import ONE, QScalar, ZERO, gauss_binomial, q_pow

__all__ = [
    "VnComodule",
    "GramForm",
    "weight_covectors",
    "solve_coinvariant_gram",
    "pairing",
    "schur_scalar",
    "NonScalarError",
    "intertwiner_space_dimension",
    "verify_comodule_axioms",
    "torus_weight",
]

STAR_FIRST = "star_first"   # sum <w0|z0> w1* z1
STAR_SECOND = "star_second"  # sum <w0|z0> z1 w1*  (the printed order)


class NonScalarError(ValueError):
    """A matrix expected to be scalar was not; carries the witness entry."""

    def __init__(self, entry, value):
        super().__init__(f"matrix is not scalar at entry {entry}: {value}")
        self.entry = entry
        self.value = value


class VnComodule:
    """The (n+1)-dimensional irreducible comodule of degree-n Manin monomials.

    Basis index i is the x-exponent: e_i = x^i y^(n-i).  The coaction
    matrix t satisfies rho(e_i) = sum_j e_j (x) t[j][i]; every coaction is
    read from it.  V_0 is the 1x1 matrix [1], and V_n for n >= 1 is one
    step of `_extend_coaction_matrix` from the cached V_(n-1), one
    generator product per entry.  V_0..V_(n-1) are read in ascending
    order first, so each one missing from the cache is built from the one
    before it and no build nests more than one VnComodule call deep.
    """

    def __init__(self, n: int, /):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n
        t = [[STD.G.one()]]
        if n:
            for k in range(n):
                t = VnComodule(k).coaction_matrix
            t = _extend_coaction_matrix(t, n)
        self.coaction_matrix = t

    # -- basis helpers ------------------------------------------------------

    def basis_str(self, i: int) -> str:
        n = self.n
        if i == 0:
            return f"y^{n}" if n != 1 else "y"
        if i == n:
            return f"x^{n}" if n != 1 else "x"
        return f"x^{i} y^{n - i}"

    def components(self, vec):
        """The w_j in G with rho(v) = sum_j e_j (x) w_j, for a coefficient
        vector v over the e_i: w_j = sum_i t[j][i] v_i."""
        vec = [QScalar.coerce(c) for c in vec]
        return [sum((t_j[i] * c for i, c in enumerate(vec) if c),
                    STD.G.zero()) for t_j in self.coaction_matrix]


def _extend_coaction_matrix(t, n: int):
    """The coaction matrix of V_n from the matrix t of V_(n-1), n >= 1.

    With e_i' = x^i y^(n-1-i) the basis of V_(n-1), e_i = e_i' y for i < n
    and e_n = e_(n-1)' x.  rho is multiplicative, rho(x) = x (x) a + y (x) c
    and rho(y) = x (x) b + y (x) d, and e_j' y = e_j, while the Manin
    relation y x = q^-1 x y gives e_j' x = q^-(n-1-j) e_(j+1).
    """
    G = STD.G
    a, b, c, d = (G.gen(g) for g in "abcd")
    out = [[G.zero()] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        # e_i = e_src' g with rho(g) = x (x) gx + y (x) gy
        src, gx, gy = (i, b, d) if i < n else (n - 1, a, c)
        for j, row in enumerate(t):
            x = row[src]
            if x:
                out[j][i] = out[j][i] + x * gy
                out[j + 1][i] = out[j + 1][i] + x * gx * q_pow(j + 1 - n)
    return out


# one V_n per n: VnComodule(n) is VnComodule(n).  The name is now a cached
# function, not a class: no isinstance, no subclassing, and n is
# positional-only so that a keyword call cannot build a second V_n.
VnComodule = functools.cache(VnComodule)


def verify_comodule_axioms(n: int):
    """The first (axiom, i, k) at which the entry t[i][k] of the coaction
    matrix breaks an axiom, or None: "coproduct" for
    (Delta t)_ik = sum_j t_ij (x) t_jk, "counit" for eps(t_ik) = delta_ik,
    "homogeneity" for homogeneity of degree n."""
    HG = hopf_G()
    t = VnComodule(n).coaction_matrix
    GG = HG.T2
    for i in range(n + 1):
        for k in range(n + 1):
            lhs = HG.delta(t[i][k])
            rhs = GG.zero()
            for j in range(n + 1):
                rhs = rhs + tensor_elem(GG, [t[i][j], t[j][k]])
            if lhs != rhs:
                return ("coproduct", i, k)
            expect = ONE if i == k else ZERO
            if HG.counit(t[i][k]) != expect:
                return ("counit", i, k)
            # degree-n homogeneity survives ad -> 1 + qbc only as the
            # filtration bound plus the torus bigrading
            for mono in t[i][k].terms:
                if (sum(mono) > n
                        or torus_weight(mono) != (2 * i - n, 2 * k - n)):
                    return ("homogeneity", i, k)
    return None


def torus_weight(mono):
    """The torus bigrading (k + r - s - t, k - r + s - t) of the monomial
    a^k b^r c^s d^t of G.  The relations of G are homogeneous for it,
    star negates it, and the Haar state vanishes off weight (0, 0)."""
    k, r, s, t = mono
    return (k + r - s - t, k - r + s - t)


def weight_covectors(n: int, chi_elem: NCPoly):
    """Spanning vectors of {v in V_n : (id x pi) rho(v) = v (x) chi}.

    Read entry by entry, the condition says sum_i (pi(t[j][i]) - delta_ij
    chi) v_i = 0 in B for every j."""
    t = VnComodule(n).coaction_matrix
    pi = pi_map()
    return linalg.kernel_basis([linalg.column(
        {j: pi(t[j][i]) - chi_elem if i == j else pi(t[j][i])
         for j in range(n + 1)}) for i in range(n + 1)])


class GramForm:
    """Diagonal coinvariant Gram matrix on the monomial basis of V_n."""

    def __init__(self, n: int, diag):
        self.n = n
        self.diag = list(diag)

    def __repr__(self):
        return (f"GramForm(n={self.n}, diag=[" +
                ", ".join(str(d) for d in self.diag) + "])")


def _inverse_binomials(n: int):
    """The orthonormality weights 1/binom(n,i)_{q^-2}, i = 0..n."""
    return [gauss_binomial(n, i, q_pow(-2)).inverse() for i in range(n + 1)]


def _gram_order(n: int, order: str):
    """Solve the coinvariance identity for a full (n+1)^2 Gram matrix in one
    Sweedler order.

    Returns (number of independent solutions, whether the single solution
    is diagonal, its diagonal normalized so <y^n|y^n> = 1); the last two
    are None when they do not apply.
    """
    V = VnComodule(n)
    t = V.coaction_matrix
    G = STD.G
    m = n + 1
    tstar = [[star(t[i][k]) for k in range(m)] for i in range(m)]
    pairs = [(k, l) for k in range(m) for l in range(m)]
    columns = []
    for i, j in pairs:
        # coefficient of G_ij in the (w, z) = (e_k, e_l) identity, with the
        # right-hand side G_kl 1 moved over on (k, l) = (i, j)
        eqs = {(k, l): tstar[i][k] * t[j][l] if order == STAR_FIRST
               else t[j][l] * tstar[i][k] for k, l in pairs}
        eqs[i, j] = eqs[i, j] - G.one()
        columns.append(linalg.column(eqs))
    sols = linalg.kernel_basis(columns)
    if len(sols) != 1:
        return len(sols), None, None
    mat = [sols[0][i * m:(i + 1) * m] for i in range(m)]
    diagonal = not any(mat[i][j] for i in range(m) for j in range(m) if i != j)
    norm = mat[0][0]  # <y^n|y^n>
    if not diagonal or norm.is_zero():
        return 1, diagonal, None
    return 1, True, [mat[i][i] / norm for i in range(m)]


def _step_defect(prev, t, k: int):
    """The first column j + 1 (j = 0..k-2) of the coaction matrix t of V_k
    that is not q^(k-1-j) times the column of e_j' x, read from the matrix
    prev of V_(k-1) and rho(x) = x (x) a + y (x) c, with e_l' y = e_l and
    e_l' x = q^-(k-1-l) e_(l+1); None when all agree."""
    a, c = STD.G.gen("a"), STD.G.gen("c")
    for j in range(k - 1):
        col = [row[j] * c for row in prev] + [STD.G.zero()]
        for l, row in enumerate(prev):
            col[l + 1] = col[l + 1] + row[j] * a * q_pow(l + 1 - k)
        if any(t[l][j + 1] != x * q_pow(k - 1 - j) for l, x in enumerate(col)):
            return j + 1
    return None


def _unitarity_defect(weights):
    """The first (i, k) in row-major order with w_i t[i][k]* != w_k S(t[k][i])
    over the coaction matrix t of V_1, or None."""
    t = VnComodule(1).coaction_matrix
    S = hopf_G().require_antipode()
    return next(((i, k) for i in range(2) for k in range(2)
                 if star(t[i][k]) * weights[i] != S(t[k][i]) * weights[k]),
                None)


@functools.cache
def _certified_step(k: int):
    """The inverse weights of V_k as a tuple over i = 0..k, once V_k is
    certified a corepresentation unitary for them; raises otherwise.

    The base case k = 0, 1: the comodule axioms hold on V_k, G has an
    antipode, and V_1 is unitary for diag(1, 1); the row is all ones.
    The step k >= 2: step k - 1 is certified first.  Then `_step_defect`
    finds no inner column 1..k-1 of V_k that differs from its reading
    through e_j' x, and the tie finds V_k equal to the extension of
    V_(k-1).  The row is [k, i] = [k-1, i] + q^-2(k-i) [k-1, i-1], the
    diagonal of mu (W_(k-1)^-1 (x) 1) mu^T for the Manin product mu
    (module docstring).  Each step is certified once per process; a
    failed step raises and caches nothing."""
    if k < 2:
        bad = verify_comodule_axioms(k)
        if bad is not None:
            raise DomainError(
                f"base case: the coaction matrix of V_{k} breaks the "
                f"comodule axioms at {bad}")
        hopf_G().require_antipode()
        defect = _unitarity_defect((ONE, ONE)) if k else None
        if defect is not None:
            raise DomainError(
                f"base case: V_1 is not unitary for diag(1, 1): "
                f"t[i][k]* != S(t[k][i]) at (i, k) = {defect}")
        return (ONE,) * (k + 1)
    row = _certified_step(k - 1)
    prev = VnComodule(k - 1).coaction_matrix
    t = VnComodule(k).coaction_matrix
    column = _step_defect(prev, t, k)
    if column is not None:
        raise DomainError(
            f"step {k}: column {column} of the coaction matrix of V_{k} "
            f"is not q^{k - column} e_{column - 1}' x")
    if t != _extend_coaction_matrix(prev, k):
        raise DomainError(f"V_{k} is not the matrix its steps from V_1 build")
    row = (ZERO, *row, ZERO)
    return tuple(row[i + 1] + row[i] * q_pow(2 * (i - k))
                 for i in range(k + 1))


def solve_coinvariant_gram(n: int) -> GramForm:
    """The coinvariant Gram form of V_n, the inverses of the row that
    `_certified_step(n)` certifies (so <y^n|y^n> = 1); fatal when the
    certificate fails.  Nothing is re-checked per call."""
    return GramForm(n, [w.inverse() for w in _certified_step(n)])


def gram_order_report(n: int):
    """Existence and diagonals of the Gram solution in both orders.

    Reviewer-facing data for the order-convention discrepancy: the printed
    order and the swapped order both may admit diagonal solutions, but only
    one reproduces the orthonormality weights."""
    expected = _inverse_binomials(n)
    out = {}
    for order in (STAR_FIRST, STAR_SECOND):
        count, diagonal, diag = _gram_order(n, order)
        entry = out[order] = {"solutions": count}
        if count == 1:
            entry["diagonal"] = diagonal
            if diag is not None:
                entry["diag"] = [str(d) for d in diag]
                entry["matches_inverse_binomial"] = diag == expected
    return out


def pairing(F, vec, gram: GramForm) -> NCPoly:
    """<F | v> for F = sum_i e_i (x) F[i] in V_n (x) A, given as its list of
    A-components: antilinear in the V-slot of F, linear in v, with the
    diagonal Gram pairing.  Returns sum_i F[i] g_i v_i in A (the
    coefficients are real rational functions, so conjugation is the
    identity)."""
    assert len(F) == gram.n + 1, "pairing needs the n + 1 components of F"
    out = F[0].alg.zero()
    for f, g_i, v_i in zip(F, gram.diag, vec):
        v_i = QScalar.coerce(v_i)
        if not v_i.is_zero():
            out = out + f * (g_i * v_i)
    return out


def schur_scalar(matrix, n: int) -> QScalar:
    """Return alpha if matrix = alpha * Id_{n+1} exactly, else raise."""
    m = n + 1
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ValueError(f"expected a {m}x{m} matrix")
    alpha = matrix[0][0]
    for i in range(m):
        for j in range(m):
            expect = alpha if i == j else ZERO
            if matrix[i][j] != expect:
                raise NonScalarError((i, j), matrix[i][j])
    return alpha


def intertwiner_space_dimension(n: int) -> int:
    """Dimension of {M : M t = t M entrywise over G} (simplicity probe)."""
    V = VnComodule(n)
    t = V.coaction_matrix
    m = n + 1
    zero = STD.G.zero()
    # the commutator [t, E_ab] of t with the matrix unit at (a, b):
    # its (k, j) entry is t[k][a] delta_jb - delta_ka t[b][j]
    columns = [linalg.column({
        (k, j): (t[k][a] if j == b else zero) - (t[b][j] if k == a else zero)
        for k in range(m) for j in range(m)})
        for a in range(m) for b in range(m)]
    return len(linalg.kernel_basis(columns))
