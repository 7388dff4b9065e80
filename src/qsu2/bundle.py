"""Sections of the quantum line bundle, the kappa transforms, and the
gluing isomorphism with the cotensor product.

Everything is instantiated on the fixed two-chart cover and the comodules
C_chi and V_n; kernels are computed on filtration slices with exact linear
algebra, and a dimension change between consecutive cutoffs fails the run.

A finite-dimensional left B-comodule is its coaction matrix L over B: basis
vector j coacts as e_j -> sum_k L[j][k] (x) e_k.  C_chi is the 1x1 matrix
[[lambda^-n]], and V_n's matrix is read from its right G-coaction matrix t
through pi and the antipode of B.  The cotensor slice is its basis list.
"""

from __future__ import annotations

from . import linalg
from .charts import (TrivializationChart, coinv_poly_coeffs, cover,
                     is_weight_vector, weight_slice)
from .comod import VnComodule
from .hopf import hopf_B, hopf_G, pi_map
from .ncalg import DomainError, NCPoly, STD, tensor_elem
from .report import check
from .scalars import ZERO

__all__ = [
    "Section",
    "c_chi",
    "vn_left_comodule",
    "kappa",
    "kappa_bar",
    "sections_space",
    "cotensor_slice",
    "glue_iso_check",
]


def c_chi(n: int):
    """The coaction matrix of the one-dimensional comodule 1 -> chi (x) 1."""
    return [[STD.B.gen("lambda", -n)]]


def vn_left_comodule(n: int):
    """The coaction matrix of V_n as a left B-comodule via the standard
    antipode side conversion: L[i][j] = S_B(pi(t[j][i])), so
    e_i -> sum_j S_B(pi(t[j][i])) (x) e_j."""
    t = VnComodule(n).coaction_matrix
    pi = pi_map()
    S_B = hopf_B().require_antipode()
    return [[S_B(pi(t[j][i])) for j in range(n + 1)] for i in range(n + 1)]


def _twist(ch: TrivializationChart, F, L, phi):
    """sum_k e_k (sum_j F_j phi(L[j][k])) for a map phi: B -> chart."""
    out = [ch.alg.zero() for _ in L]
    for f, row in zip(F, L):
        if f.is_zero():
            continue
        for k, beta in enumerate(row):
            if not beta.is_zero():
                out[k] = out[k] + f * phi(beta)
    return out


def kappa(ch: TrivializationChart, F, L):
    """kappa^gamma(sum e_j (x) m_j) = sum e_j gamma(m_(-1)) (x) m_(0).

    F is a list of chart elements indexed by the basis of the comodule
    with coaction matrix L."""
    return _twist(ch, F, L, ch.gamma)


def kappa_bar(ch: TrivializationChart, F, L):
    """The convolution inverse: gamma o S_B in place of gamma."""
    S_B = hopf_B().require_antipode()
    return _twist(ch, F, L, lambda beta: ch.gamma(S_B(beta)))


class Section:
    """A global section of L_chi: a gluing pair (f_b, f_d)."""

    def __init__(self, f_b: NCPoly, f_d: NCPoly, n: int):
        self.f_b = f_b
        self.f_d = f_d
        self.n = n
        if not self.glues():
            raise DomainError(f"pair does not glue: ({f_b}, {f_d})")

    def glues(self) -> bool:
        """f_b gamma_b(chi) = f_d gamma_d(chi), compared once, in G_bd."""
        cov = cover()
        return cov.b.glued(self.f_b, self.n) == cov.d.glued(self.f_d, self.n)

    def __repr__(self):
        return f"Section(n={self.n}, f_b={self.f_b}, f_d={self.f_d})"


def cotensor_slice(n: int, degree: int):
    """Basis of {g in G : rho_B(g) = g (x) lambda^-n} within a cutoff."""
    return weight_slice(STD.G, STD.B.gen("lambda", -n), degree)


def sections_space(n: int, degree: int):
    """Basis of gluing pairs with u- and u'-degree up to `degree`."""
    cov = cover()
    pairs = cov.glued_pairs([cov.b.coinv_gen ** k for k in range(degree + 1)],
                            [cov.d.coinv_gen ** k for k in range(degree + 1)],
                            n)
    return [Section(f_b, f_d, n) for f_b, f_d in pairs]


def _section_coords(sec: Section, degree: int):
    cov = cover()
    cb = coinv_poly_coeffs(sec.f_b, cov.b)
    cd = coinv_poly_coeffs(sec.f_d, cov.d)
    if cb is None or cd is None:
        return None
    cb = cb + [ZERO] * (degree + 1 - len(cb))
    cd = cd + [ZERO] * (degree + 1 - len(cd))
    return cb + cd


def _is_basis_of_span(vectors, basis) -> bool:
    """Whether `vectors` form a basis of the span of `basis`, whose vectors
    are independent (the section basis is a kernel basis read back in
    coordinates) and as many.  Two eliminations: `vectors` have no linear
    relation, and `vectors` followed by `basis` have len(basis) independent
    relations, so every vector lies in the span of `basis`."""
    vec_cols = [dict(enumerate(v)) for v in vectors]
    basis_cols = [dict(enumerate(v)) for v in basis]
    return (not linalg.kernel_basis(vec_cols)
            and len(linalg.kernel_basis(vec_cols + basis_cols)) == len(basis))


def glue_iso_check(n: int, degree: int):
    """The Theorem-2/Theorem-3 package at one cutoff.

    Returns the shared check list: dimension agreement and stability,
    bijectivity of g -> (iota_b(g) gamma_b(chi)^-1, iota_d(g) gamma_d(chi)^-1)
    onto the section space, the kappa/kappa-bar identities and image
    characterization, and the comodule intertwiner with V_n.
    """
    if degree < n:
        raise ValueError("degree must be at least n")
    checks = []
    cov = cover()
    B = STD.B

    def emit(name, ok, anchor, witness=None):
        checks.append(check(f"n={n}.{name}", ok, anchor, witness))

    slice_now = cotensor_slice(n, degree)
    slice_next = cotensor_slice(n, degree + 1)
    secs_now = sections_space(n, degree)
    secs_next = sections_space(n, degree + 1)
    emit("cotensor_dim", len(slice_now) == n + 1,
         "Gamma L_chi isomorphic to the cotensor product; dim = n+1",
         len(slice_now))
    emit("sections_dim", len(secs_now) == n + 1,
         "space of gluing pairs f_lambda gamma_lambda(chi) = ...",
         len(secs_now))
    emit("cutoff_stability",
         len(slice_next) == len(slice_now) and len(secs_next) == len(secs_now),
         "dimensions stable under cutoff increase",
         (len(slice_now), len(slice_next), len(secs_now), len(secs_next)))

    # bijectivity of the gluing map
    gb_inv = cov.b.gamma(B.gen("lambda", n))
    gd_inv = cov.d.gamma(B.gen("lambda", n))
    sec_mat = [_section_coords(s, degree) for s in secs_now]
    images = []
    ok = True
    witness = None
    for g in slice_now:
        f_b = cov.b.iota(g) * gb_inv
        f_d = cov.d.iota(g) * gd_inv
        try:
            sec = Section(f_b, f_d, n)
        except DomainError as exc:
            ok, witness = False, exc
            break
        coords = _section_coords(sec, degree)
        if coords is None:
            ok, witness = False, f"image not polynomial in u/u': {sec}"
            break
        images.append(coords)
    emit("glue_map_lands_in_sections", ok,
         "g -> (iota_b(g) gamma_b(chi)^-1, iota_d(g) gamma_d(chi)^-1)",
         witness)
    if ok and len(images) == len(sec_mat) == n + 1:
        emit("glue_map_bijective", _is_basis_of_span(images, sec_mat),
             "naturally isomorphic to the cotensor product as a vector space")
    else:
        emit("glue_map_bijective", False, "dimension mismatch")

    # kappa / kappa-bar on the unit rows, both comodules, both charts:
    # `_twist` multiplies each F_j on the left, so both maps are left-linear
    # over the chart and the unit rows decide the identities for every F
    def unit_row_fails(ch, L, j):
        F = [ch.alg.one() if k == j else ch.alg.zero() for k in range(len(L))]
        return (kappa(ch, kappa_bar(ch, F, L), L) != F
                or kappa_bar(ch, kappa(ch, F, L), L) != F)

    # both need the antipode of B; a failed solve fails them, with the
    # failure as the witness
    try:
        comodules = ((f"C_chi(n={n})", c_chi(n)),
                     (f"V_{n} (left)", vn_left_comodule(n)))
        witness = next(((ch.name, name, f"unit row {j}")
                        for ch in (cov.d, cov.b)
                        for name, L in comodules
                        for j in range(len(L))
                        if unit_row_fails(ch, L, j)), None)
    except DomainError as exc:
        witness = exc
    emit("kappa_inverse", witness is None,
         "kappa o kappa-bar = Id = kappa-bar o kappa", witness)

    # image characterization at the cutoff
    ok = True
    witness = None
    L = c_chi(n)
    (chi,), = L
    try:
        for ch in (cov.d, cov.b):
            for k in range(degree + 1):
                img, = kappa(ch, [ch.coinv_gen ** k], L)
                if not is_weight_vector(ch, img, chi):
                    ok, witness = False, (ch.name, f"u^{k}")
                    break
            # localized cotensor elements map back into coinvariants (x) M
            for h in weight_slice(ch.alg, chi, max(2, n)):
                f, = kappa_bar(ch, [h], L)
                if not is_weight_vector(ch, f, B.one()):
                    ok, witness = False, (ch.name, str(h))
                    break
    except DomainError as exc:
        ok, witness = False, exc
    emit("kappa_image_characterization", ok,
         "Im(kappa|) = E box M and Im(kappa-bar|) = E^coB (x) M", witness)

    # the right G-comodule structure matches V_n via an intertwiner
    V = VnComodule(n)
    t = V.coaction_matrix
    HG = hopf_G()
    GG = HG.T2
    m = n + 1
    delta_s = [HG.delta(s) for s in slice_now]
    # unknown Phi[jj][kk] enters the row-j equation
    # Delta(sum_k Phi[j][k] s_k) = sum_i t[j][i] (x) (sum_k Phi[i][k] s_k)
    # on the left when j = jj, and on the right through i = jj for every j
    columns = [linalg.column({
        j: (delta_s[kk] if j == jj else GG.zero())
        - tensor_elem(GG, [t[j][jj], slice_now[kk]]) for j in range(m)})
        for jj in range(m) for kk in range(m)]
    sols = linalg.kernel_basis(columns)
    phi_ok = False
    if len(sols) == 1:
        vec = sols[0]
        phi = [[vec[j * m + k] for k in range(m)] for j in range(m)]
        phi_ok = not linalg.kernel_basis([dict(enumerate(row)) for row in phi])
    emit("coaction_intertwiner", phi_ok,
         "the equivalences respect the D-comodule structure "
         "(induced comodule is V_n)", len(sols))
    return checks
