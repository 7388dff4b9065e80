"""Three old code paths of `qsu2.comod`, kept here only as oracles
(tests/test_comod.py).

`coaction_matrix` is the coaction matrix of V_n as `VnComodule` built it
before it extended V_(n-1) by one generator: every column read off the power
rho(x)^i rho(y)^(n-i) in Manin (x) G.  It shares neither the degree-by-degree
recursion nor the Manin commutation factor with the code under test.

`coaction` and `weight_covectors` are the tensor form of the coaction that
`comod` used before a comodule was only its coaction matrix: rho(v) as an
element of Manin (x) G, and the weight condition (id x pi) rho(v) = v (x) chi
solved on its Manin (x) B monomials.

`certify_corepresentation` is the corepresentation certificate as
`solve_coinvariant_gram` ran it before each Manin step was certified once
per process, and before the step read V_k from the left: for every n it
rebuilds the chain V_2..V_n from V_1 with the construction, reads the
inner columns of each step through x (`step_defect`), and ties only V_n to
the cached matrix.  It returns the inverse weights by the right q-Pascal
rule.  Since the chain runs the construction itself, a corner of V_k built
wrong passes it at n = k: the inner columns of V_k agree with the chain's
own V_(k-1).
"""

from __future__ import annotations

from qsu2 import comod, linalg
from qsu2.comod import VnComodule
from qsu2.hopf import pi_map
from qsu2.ncalg import DomainError, NCPoly, STD, apply_tensor_map, tensor_elem
from qsu2.scalars import ONE, ZERO, q_pow


def coaction_matrix(n: int):
    """t[j][i] over G with rho(x^i y^(n-i)) = sum_j x^j y^(n-j) (x) t[j][i]."""
    G, M = STD.G, STD.M
    MG = STD.tensor(M, G)
    rho_x = (tensor_elem(MG, [M.gen("x"), G.gen("a")])
             + tensor_elem(MG, [M.gen("y"), G.gen("c")]))
    rho_y = (tensor_elem(MG, [M.gen("x"), G.gen("b")])
             + tensor_elem(MG, [M.gen("y"), G.gen("d")]))
    t = [[G.zero() for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n + 1):
        img = rho_x ** i * rho_y ** (n - i)
        for mono, c in img.terms.items():
            mm, gm = MG.split_mono(mono)
            j = mm[0]
            assert mm[0] + mm[1] == n
            t[j][i] = t[j][i] + NCPoly(G, {gm: c})
    return t


def coaction(n: int, vec) -> NCPoly:
    """rho(v) in Manin (x) G for a coefficient vector over the e_i."""
    MG = STD.tensor(STD.M, STD.G)
    out = MG.zero()
    for j, w in enumerate(VnComodule(n).components(vec)):
        e_j = NCPoly(STD.M, {(j, n - j): ONE})
        out = out + tensor_elem(MG, [e_j, w])
    return out


def weight_covectors(n: int, chi_elem: NCPoly):
    """Spanning vectors of {v in V_n : (id x pi) rho(v) = v (x) chi}."""
    pi = pi_map()
    MB = STD.tensor(STD.M, STD.B)
    columns = []
    for i in range(n + 1):
        vec = [ONE if k == i else ZERO for k in range(n + 1)]
        lhs = apply_tensor_map(coaction(n, vec), [None, pi.image], MB)
        rhs = tensor_elem(MB, [NCPoly(STD.M, {(i, n - i): ONE}), chi_elem])
        columns.append(dict((lhs - rhs).terms))
    return linalg.kernel_basis(columns)


def step_defect(prev, t, k: int):
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


def certify_corepresentation(n: int):
    """The inverse weights of V_n as a tuple, once the axioms hold on V_1
    (V_0 when n = 0), each step k = 2..n of the chain from V_1 holds, and
    the chain ends at V_n; raises otherwise.  The row obeys
    [k, i] = [k-1, i] + q^-2(k-i) [k-1, i-1]."""
    base = min(n, 1)
    bad = comod.verify_comodule_axioms(base)
    if bad is not None:
        raise DomainError(
            f"base case: the coaction matrix of V_{base} breaks the "
            f"comodule axioms at {bad}")
    t = VnComodule(base).coaction_matrix
    row = (ONE,) * (base + 1)
    for k in range(2, n + 1):
        nxt = comod._extend_coaction_matrix(t, k)
        column = step_defect(t, nxt, k)
        if column is not None:
            raise DomainError(
                f"step {k}: column {column} of the coaction matrix of V_{k} "
                f"is not q^{k - column} e_{column - 1}' x")
        t = nxt
        row = (ZERO, *row, ZERO)
        row = tuple(row[i + 1] + row[i] * q_pow(2 * (i - k))
                    for i in range(k + 1))
    if t != VnComodule(n).coaction_matrix:
        raise DomainError(f"V_{n} is not the matrix its steps from V_1 build")
    return row
