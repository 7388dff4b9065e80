"""Exact linear algebra over the rational-function field.

Vectors are dicts mapping arbitrary hashable row keys to QScalar.  Kernel
computations split the column set into connected components (columns are
linked when they share a row key), which keeps the Gaussian eliminations
tiny for the graded systems that arise here.

A system of several polynomial equations enters through `column`: each
unknown's column is stated as {label: NCPoly}, its coefficient in every
labelled equation, and the row key (label, monomial) is formed here and
nowhere else.
"""

from __future__ import annotations

from .scalars import ONE, ZERO

__all__ = ["column", "kernel_basis", "in_span"]


def column(equations):
    """The kernel column {(label, mono): c} of one unknown whose
    coefficient in the equation `label` is the polynomial equations[label]."""
    return {(label, mono): c for label, p in equations.items()
            for mono, c in p.terms.items() if c}


def _components(columns):
    """Union-find on columns sharing a row key."""
    parent = list(range(len(columns)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for ci, col in enumerate(columns):
        for key in col:
            if key in owner:
                ra, rb = find(owner[key]), find(ci)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[key] = ci
    groups = {}
    for ci in range(len(columns)):
        groups.setdefault(find(ci), []).append(ci)
    return list(groups.values())


def _dense_kernel(cols):
    """Kernel basis of the matrix with the given dense columns."""
    nrows = len(cols[0]) if cols else 0
    ncols = len(cols)
    # row-reduce the transpose-free way: eliminate on rows of [cols]
    mat = [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, len(mat)):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        inv = mat[prow][col].inverse()
        mat[prow] = [x * inv for x in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[prow])]
        pivots.append(col)
        prow += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for pr, pc in enumerate(pivots):
            v[pc] = -mat[pr][fc]
        basis.append(v)
    return basis


def kernel_basis(columns):
    """Basis of the kernel of the linear map sending unit vector j to
    columns[j] (a dict row-key -> QScalar).

    Returns a list of coefficient lists (length = number of columns).
    """
    n = len(columns)
    if n == 0:
        return []
    basis = []
    for group in _components(columns):
        # first-seen order: the reduced echelon form, and so the kernel
        # basis, does not depend on the order of the rows
        keys = dict.fromkeys(k for ci in group for k in columns[ci])
        if not keys:  # all-zero columns: each is free
            for ci in group:
                v = [ZERO] * n
                v[ci] = ONE
                basis.append(v)
            continue
        dense = [[columns[ci].get(k, ZERO) for k in keys] for ci in group]
        sub_basis = _dense_kernel(dense)
        for sv in sub_basis:
            v = [ZERO] * n
            for local, ci in enumerate(group):
                v[ci] = sv[local]
            basis.append(v)
    return basis


def in_span(columns, target):
    """(coefficients expressing `target` in the span of `columns`, or None;
    whether `columns` are independent) from one elimination.

    The kernel of columns + [target] is the kernel of `columns`, plus one
    vector with a nonzero last entry when the target is in their span.
    """
    ext = list(columns) + [target]
    kernel = kernel_basis(ext)
    for v in kernel:
        if v[-1]:
            inv = -v[-1].inverse()  # move target to the other side
            return [x * inv for x in v[:-1]], len(kernel) == 1
    return None, not kernel
