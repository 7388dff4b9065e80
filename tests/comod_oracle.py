"""The coaction matrix of V_n as `qsu2.comod.VnComodule` built it before it
extended V_(n-1) by one generator: every column read off the power
rho(x)^i rho(y)^(n-i) in Manin (x) G.

It is kept here only as an oracle for the coaction matrix
(tests/test_comod.py), so it shares neither the degree-by-degree recursion
nor the Manin commutation factor with the code under test.
"""

from __future__ import annotations

from qsu2.ncalg import NCPoly, STD, tensor_elem


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
