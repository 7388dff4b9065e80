"""Two old code paths of `qsu2.comod`, kept here only as oracles
(tests/test_comod.py).

`coaction_matrix` is the coaction matrix of V_n as `VnComodule` built it
before it extended V_(n-1) by one generator: every column read off the power
rho(x)^i rho(y)^(n-i) in Manin (x) G.  It shares neither the degree-by-degree
recursion nor the Manin commutation factor with the code under test.

`coaction` and `weight_covectors` are the tensor form of the coaction that
`comod` used before a comodule was only its coaction matrix: rho(v) as an
element of Manin (x) G, and the weight condition (id x pi) rho(v) = v (x) chi
solved on its Manin (x) B monomials.
"""

from __future__ import annotations

from qsu2 import linalg
from qsu2.comod import VnComodule
from qsu2.hopf import pi_map
from qsu2.ncalg import NCPoly, STD, apply_tensor_map, tensor_elem
from qsu2.scalars import ONE, ZERO


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
