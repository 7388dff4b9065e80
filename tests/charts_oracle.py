"""The cover equalizer as `qsu2.charts` checked it before one solve at the
top degree served every degree, kept here only as an oracle
(tests/test_charts.py, and CI at degree 7).

`cover_equalizer(degree)` solves the injectivity and gluing systems of its
own degree slice, with the b-words and then the d-words as the gluing
columns, and builds each side of a pair as a sum of NCPolys over every
column, as `Cover.glued_pairs` did.  `pairs(degree)` is that slice's
kernel basis of agreeing pairs.  It reads `charts.cover` and
`charts.retract` when called, so a test that installs a faulty map into
G_bd or a faulty retraction reaches the oracle as well as the code under
test.
"""

from __future__ import annotations

from qsu2 import charts, linalg
from qsu2.hopf import basis_words
from qsu2.ncalg import DomainError, STD
from qsu2.report import check


def pairs(degree):
    """The agreeing pairs (f_b, f_d) from the chart slices of `degree`."""
    cov = charts.cover()
    fs_b = basis_words(cov.b.alg, degree)
    fs_d = basis_words(cov.d.alg, degree)
    columns = [dict(cov.b.glued(f, 0).terms) for f in fs_b]
    columns += [{m: -c for m, c in cov.d.glued(f, 0).terms.items()}
                for f in fs_d]

    def span(alg, fs, coeffs):
        return sum((f * c for f, c in zip(fs, coeffs) if c), alg.zero())

    nb = len(fs_b)
    return [(span(cov.b.alg, fs_b, vec[:nb]), span(cov.d.alg, fs_d, vec[nb:]))
            for vec in linalg.kernel_basis(columns)]


def cover_equalizer(degree):
    """The four records of one degree slice."""
    G = STD.G

    def injective():
        cov = charts.cover()
        return not linalg.kernel_basis([
            linalg.column({"b": cov.b.iota(p), "d": cov.d.iota(p)})
            for p in basis_words(G, degree)]), None

    def gluing():
        cov = charts.cover()
        for f_b, f_d in pairs(degree):
            try:
                f = charts.retract(f_b, G)
            except DomainError:
                return False, f"pair does not retract to G: ({f_b}, {f_d})"
            if cov.d.iota(f) != f_d or cov.b.iota(f) != f_b:
                return False, f"retraction mismatch for ({f_b}, {f_d})"
        return True, None

    return [
        check(f"cover.injectivity_deg{degree}",
              "0 -> M -> prod S_lambda^-1 M is exact", injective),
        *(check(f"cover.gluing_deg{degree}_order_{name}",
                "the fork diagram is an equalizer diagram (consecutive "
                f"localization order {order}; both factor through G_bd since "
                "b,d q-commute)", gluing)
          for name, order in (("bd", "b,d"), ("db", "d,b"))),
        check(f"cover.gluing_pairs_deg{degree}", "gluing dimension record",
              lambda: (True, f"{len(pairs(degree))} agreeing pairs, "
                       "all from G"), keep_witness=True)]
