"""Small exact linear algebra: integer normal forms and modular solves.

Everything here operates on lists of lists; matrices are tiny (rank of a
root system), so clarity beats asymptotics.  Callers that solve many
systems with one matrix factor it once: ``solve_mod`` takes a Smith form
from ``smith_normal_form`` (a cocharacter lattice holds the one of its
pairing matrix), and still checks every solution it returns against the
original matrix.  ``hermite_row_basis`` gives the canonical basis that
cocharacter lattices are stored in.  The rational helpers ``mat_mul``,
``mat_det`` and ``mat_inv`` are not exported: nothing in the package
calls them, and the tests use them as the ``Fraction`` oracle, so
``fractions`` is imported inside them and not with the package.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "smith_normal_form",
    "solve_mod",
    "hermite_row_basis",
]


def _copy(m):
    return [list(row) for row in m]


def smith_normal_form(m):
    """Return (d, u, v) with u*m*v = d diagonal, d_i | d_{i+1}, u, v unimodular."""
    a = _copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # move a minimal nonzero entry of the trailing block to (t, t)
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            if a[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    dirty = dirty or a[i][t] % a[t][t] != 0
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, cols):
                if a[t][j]:
                    dirty = dirty or a[t][j] % a[t][t] != 0
                    add_col(j, t, -(a[t][j] // a[t][t]))
            if dirty:
                continue
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and \
                    all(a[t][j] == 0 for j in range(t + 1, cols)):
                # enforce divisibility of the remaining block by a[t][t]
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)
    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if i != j and a[i][j] != 0:
                raise AssertionError("SNF reduction left an off-diagonal entry")
    return d, u, v


def solve_mod(m, snf, b, n: int):
    """A solution x of m x = b (mod n), or None.

    ``snf`` is ``smith_normal_form(m)``, (d, u, v) with u m v = d: solve
    d y = u b coordinatewise, then x = v y, and check m x = b (mod n).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d, u, v = snf
    ub = [sum(u[i][j] * b[j] for j in range(rows)) % n for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if ub[i] % n != 0:
                return None
            continue
        g = gcd(di, n)
        if ub[i] % g != 0:
            return None
        # di * y = ub (mod n): divide through by g, invert di/g mod n/g
        ni = n // g
        inv = pow((di // g) % ni, -1, ni) if ni > 1 else 0
        y[i] = ((ub[i] // g) * inv) % n
    x = [sum(v[i][j] * y[j] for j in range(cols)) % n for i in range(cols)]
    for i in range(rows):
        if sum(m[i][j] * x[j] for j in range(cols)) % n != b[i] % n:
            raise AssertionError("solve_mod produced a bad witness")
    return tuple(x)


def hermite_row_basis(rows):
    """Row-style Hermite basis of the lattice spanned by integer rows.

    Returns the nonzero rows of the canonical echelon basis: each pivot is
    positive, and every entry above a pivot lies in [0, pivot).  Input
    rows may be redundant; two generating sets of one lattice give the
    same basis.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    basis = []
    pivot_col = 0
    while pivot_col < cols and work:
        live = [r for r in work if r[pivot_col] != 0]
        rest = [r for r in work if r[pivot_col] == 0]
        if not live:
            work = rest
            pivot_col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[pivot_col]))
            p = live[0]
            out = [p]
            for r in live[1:]:
                f = r[pivot_col] // p[pivot_col]
                r = [x - f * y for x, y in zip(r, p)]
                if r[pivot_col] != 0:
                    out.append(r)
                elif any(r):
                    rest.append(r)
            live = out
        p = live[0]
        if p[pivot_col] < 0:
            p = [-x for x in p]
        basis.append(p)
        work = rest
        pivot_col += 1
    # reduce entries above each pivot for a canonical result, in pivot
    # order: row i is zero left of its pivot, so it leaves the columns of
    # the earlier pivots as they were reduced
    for i in range(len(basis)):
        pc = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            f = basis[k][pc] // basis[i][pc]
            if f:
                basis[k] = [x - f * y for x, y in zip(basis[k], basis[i])]
    return [list(r) for r in basis]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_det(m):
    """Exact determinant, as a Fraction."""
    # imported here so that importing the package skips ``fractions``
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def mat_inv(m):
    """Exact inverse of a square matrix, as Fractions."""
    # imported here so that importing the package skips ``fractions``
    from fractions import Fraction
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[c], a[pivot] = a[pivot], a[c]
        f = a[c][c]
        a[c] = [x / f for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                g = a[r][c]
                a[r] = [x - g * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]
