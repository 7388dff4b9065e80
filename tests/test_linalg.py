"""Direct tests of the exact linear algebra: `column`, `kernel_basis` and
`in_span`, with a Fraction elimination as the rank oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qsu2 import charts, linalg
from qsu2.hopf import hopf_B, hopf_G
from qsu2.ncalg import NCPoly, STD
from qsu2.scalars import ONE, QScalar, ZERO, q_pow

G = STD.G
MONO_A, MONO_B, MONO_C = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)


def test_column_keeps_labels_apart():
    a, b = G.gen("a"), G.gen("b")
    col = linalg.column({"x": a + b, "y": a * 2})
    assert col == {("x", MONO_A): ONE, ("x", MONO_B): ONE,
                   ("y", MONO_A): QScalar.coerce(2)}


def test_column_leaves_out_cancelled_terms():
    b = G.gen("b")
    assert linalg.column({"x": b - b}) == {}
    # a term dict holding an explicit zero still gives no row
    explicit_zero = NCPoly(G, {MONO_A: ZERO, MONO_C: ONE})
    assert linalg.column({"x": explicit_zero}) == {("x", MONO_C): ONE}


def test_kernel_basis_two_components_and_a_zero_column():
    q = q_pow(1)
    two = QScalar.coerce(2)
    columns = [
        {"r1": ONE, "r2": ONE},
        {"r1": two, "r2": two},   # twice the first column
        {},                       # all zero: free by itself
        {"s": q},
        {"s": ONE},               # q^-1 times the fourth column
    ]
    assert linalg.kernel_basis(columns) == [
        [-two, ONE, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, -q_pow(-1), ONE],
    ]


def test_in_span_inconsistent_target():
    # dependent columns: a solution, if any, is not unique
    columns = [{"r": ONE}, {"r": q_pow(1)}]
    assert linalg.in_span(columns, {"s": ONE}) == (None, False)
    assert linalg.in_span(columns, {"r": q_pow(2)}) == ([q_pow(2), ZERO],
                                                         False)
    # independent columns: unique whether or not the target is reached
    columns = [{"r": ONE}, {"s": q_pow(1)}]
    assert linalg.in_span(columns, {"t": ONE}) == (None, True)
    assert linalg.in_span(columns, {"s": ONE}) == ([ZERO, q_pow(-1)], True)


def test_in_span_flags_uniqueness_on_the_engine_systems(monkeypatch):
    # the flag from the one elimination of columns + [target] is the one a
    # second elimination of the columns alone gave, on both antipode
    # systems and both gamma systems
    chs = [charts.chart(which) for which in ("d", "b")]
    systems = []
    in_span = linalg.in_span

    def record(columns, target):
        sol, unique = in_span(columns, target)
        systems.append((columns, unique))
        return sol, unique

    monkeypatch.setattr(linalg, "in_span", record)
    for hopf in (hopf_G(), hopf_B()):
        hopf._solve_antipode()
    for ch in chs:
        charts.build_gamma(ch)
    assert [unique for _, unique in systems] == [True] * 4
    for columns, unique in systems:
        assert unique == (not linalg.kernel_basis(columns))


def test_antipodes_are_unique_in_their_ansatz():
    assert hopf_G().antipode_unique
    assert hopf_B().antipode_unique


def _fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, independent of linalg."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _columns(rows):
    return [{r: QScalar.coerce(row[j]) for r, row in enumerate(rows) if row[j]}
            for j in range(len(rows[0]))]


def _apply(columns, x):
    out = {}
    for col, xj in zip(columns, x):
        for r, v in col.items():
            out[r] = out.get(r, ZERO) + v * xj
    return {r: v for r, v in out.items() if v}


entries = st.integers(min_value=-2, max_value=2)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    return rows, x


@settings(max_examples=150)
@given(matrices())
def test_kernel_and_span_on_integer_matrices(data):
    rows, x = data
    columns = _columns(rows)
    kernel = linalg.kernel_basis(columns)
    for v in kernel:
        assert _apply(columns, v) == {}
    assert len(kernel) == len(columns) - _fraction_rank(rows)
    target = _apply(columns, [QScalar.coerce(e) for e in x])
    sol, unique = linalg.in_span(columns, target)
    assert sol is not None
    assert unique == (not kernel)
    assert linalg.in_span(columns, {"extra": ONE}) == (None, not kernel)
    assert _apply(columns, sol) == target
