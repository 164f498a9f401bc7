"""Small exact linear algebra: integer normal forms and modular solves.

Everything here operates on lists of lists; matrices are tiny (rank of a
root system), so clarity beats asymptotics.  Callers that solve many
systems with one matrix and modulus prepare them once: ``prepare_mod``
takes a Smith form from ``smith_normal_form`` and a modulus n, and folds
every row whose invariant factor is a unit mod n into one matrix (a
cocharacter lattice holds the Smith form of its pairing matrix and one
prepared solver per n).  ``solve_mod`` takes the prepared solver and a
right side, and still checks every solution it returns against the
original matrix.  ``hermite_row_basis`` gives the canonical basis that
cocharacter lattices are stored in.  The rational helpers ``mat_mul``,
``mat_det`` and ``mat_inv`` are not exported: nothing in the package
calls them, and the tests use them as the ``Fraction`` oracle, so
``fractions`` is imported inside them and not with the package.
"""

from __future__ import annotations

from math import gcd
from operator import mul

__all__ = [
    "smith_normal_form",
    "prepare_mod",
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


def prepare_mod(m, snf, n: int):
    """The part of solving m x = b (mod n) that does not depend on b.

    ``snf`` is ``smith_normal_form(m)``, (d, u, v) with u m v = d, so the
    system is d y = u b with x = v y.  Every row whose d_i is a unit mod
    n folds into one matrix F = v diag(d_i^-1) u mod n.  Each other row,
    g = gcd(d_i, n) > 1 (d_i = 0 gives g = n), keeps its u-row, g, the
    inverse of d_i/g mod n/g and its v-column.  ``solve_mod`` takes the
    result, the tuple (m, n, F, kept rows).  Raises ``ValueError``
    unless n >= 1.
    """
    if n < 1:
        raise ValueError(f"modulus {n} is not positive")
    d, u, v = snf
    rows = len(m)
    cols = len(m[0]) if rows else 0
    fold = [[0] * rows for _ in range(cols)]
    kept = []
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        g = gcd(di, n)
        # di * y = ub (mod n): divide through by g, invert di/g mod n/g
        ni = n // g
        inv = pow((di // g) % ni, -1, ni) if ni > 1 else 0
        vcol = [row[i] for row in v] if i < cols else [0] * cols
        if g == 1:
            for frow, vj in zip(fold, vcol):
                f = vj * inv
                frow[:] = [x + f * uk for x, uk in zip(frow, u[i])]
        else:
            kept.append((tuple(u[i]), g, inv, tuple(vcol)))
    fold = tuple(tuple(x % n for x in frow) for frow in fold)
    return m, n, fold, tuple(kept)


def solve_mod(prepared, b):
    """A solution x of m x = b (mod n), or None.

    ``prepared`` is ``prepare_mod(m, snf, n)``: x = F b plus v_i y_i for
    each kept row, with y_i = ((u_i b mod n) / g) (d_i/g)^-1, and None
    when g does not divide u_i b mod n.  Every x is checked against
    every row of m before it is returned.  Raises ``ValueError`` unless
    b has one entry per row of m.
    """
    m, n, fold, kept = prepared
    if len(b) != len(m):
        raise ValueError(f"right-hand side has {len(b)} entries for {len(m)} rows")
    x = [sum(map(mul, frow, b)) for frow in fold]
    for urow, g, inv, vcol in kept:
        ub = sum(map(mul, urow, b)) % n
        if ub % g:
            return None
        y = (ub // g) * inv
        if y:
            x = [xj + vj * y for xj, vj in zip(x, vcol)]
    x = tuple([xj % n for xj in x])
    for row, bi in zip(m, b):
        if sum(map(mul, row, x)) % n != bi % n:
            raise AssertionError("solve_mod produced a bad witness")
    return x


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
