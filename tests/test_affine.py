from fractions import Fraction

import pytest

from conftest import mat_mul
from weylrep import affine, intmat, weyl
from weylrep.affine import (
    all_lattices,
    check_flip_sum_even,
    check_second_difference,
    diagram_permutation,
    flip_sum_at_r,
    half_spin_lattice,
    lattice_classes,
    marks,
    minuscule_nodes,
    omega_group,
    sigma_rs,
    simply_connected_lattice,
    type_a_quotient_lattice,
    vector_lattice,
)


def cycle_of(perm, start):
    out = [start]
    j = perm[start]
    while j != start:
        out.append(j)
        j = perm[j]
    return tuple(out)


def test_lattice_validation(get_rs):
    rs = get_rs("D", 5)
    for lat in all_lattices(rs):
        # Q^vee inside, inside P^vee: revalidated explicitly
        assert lat.index_in_coroot >= 1
    names = [lat.name for lat in all_lattices(rs)]
    assert names == ["simply-connected", "SO", "adjoint"]
    assert [lat.index_in_coroot for lat in all_lattices(rs)] == [1, 2, 4]


# the center P^vee / Q^vee of each type, as its number of subgroups
def _subgroup_count(label, rank):
    if label == "A":
        return sum(1 for m in range(1, rank + 2) if (rank + 1) % m == 0)
    if label == "D":
        return 5 if rank % 2 == 0 else 3
    return {"B": 2, "C": 2, "E": {6: 2, 7: 2, 8: 1}.get(rank), "F": 1,
            "G": 1}[label]


@pytest.mark.parametrize("label,rank",
                         [("A", r) for r in range(1, 13)] +
                         [("B", r) for r in range(2, 10)] +
                         [("C", r) for r in range(2, 10)] +
                         [("D", r) for r in range(3, 13)] +
                         [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_all_lattices_are_pairwise_distinct(label, rank, get_rs,
                                            get_fraction_lattices):
    """One lattice per subgroup of P^vee / Q^vee, no two with the same
    Hermite form, so none is listed twice.  Each is the Fraction route's
    lattice: its simple-coroot basis mapped through C has the same
    Hermite form, and both give the same index and the same classes."""
    rs = get_rs(label, rank)
    lats = all_lattices(rs)
    assert len(lats) == _subgroup_count(label, rank)
    assert len({lat.basis for lat in lats}) == len(lats)
    olds = get_fraction_lattices(label, rank)
    assert [old.name for old in olds] == [lat.name for lat in lats]
    cartan = rs.datum.cartan_matrix
    cw = intmat.mat_inv(cartan)  # fundamental coweights, simple-coroot coords
    group = omega_group(rs)
    for lat, old in zip(lats, olds):
        mapped = [[int(x) for x in row] for row in mat_mul(old.basis, cartan)]
        assert intmat.hermite_row_basis(mapped) == [list(row) for row in lat.basis]
        assert lat.index_in_coroot == old.index_in_coroot
        assert [om.class_node for om in lattice_classes(lat, group)] == \
            [None] + [j for j in minuscule_nodes(rs) if old.contains(cw[j - 1])]


def test_lattice_indices_divide_connection_index(get_rs):
    for label, rank, full in (("A", 5, 6), ("D", 4, 4), ("D", 6, 4),
                              ("E", 6, 3), ("B", 3, 2), ("G", 2, 1)):
        rs = get_rs(label, rank)
        for lat in all_lattices(rs):
            assert full % lat.index_in_coroot == 0


LATTICE_TYPES = [("A", 5), ("A", 7), ("B", 4), ("C", 4), ("D", 4), ("D", 6),
                 ("D", 7), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("label, rank", LATTICE_TYPES)
def test_lattice_classes_are_the_lattice_omega_group(label, rank, get_rs):
    """Filtering the system's group by containment lists one class per
    element of lat / Q^vee, in the group's order, and the adjoint lattice
    (the last one listed) keeps them all; a short group trips the count."""
    rs = get_rs(label, rank)
    group = omega_group(rs)
    lats = all_lattices(rs)
    assert lattice_classes(lats[-1], group) == group
    for lat in lats:
        classes = lattice_classes(lat, group)
        assert len(classes) == lat.index_in_coroot
        assert list(classes) == [om for om in group if om in classes]
        if lat.index_in_coroot > 1:
            with pytest.raises(AssertionError, match="found 1 classes"):
                lattice_classes(lat, group[:1])


@pytest.mark.parametrize("label, rank", LATTICE_TYPES)
def test_lattices_hold_their_inverse_basis(label, rank, get_rs,
                                           get_fraction_lattices):
    """What the Fraction route reads from its held inverse basis, in
    integers: each basis is a canonical Hermite basis, Q^vee lies inside
    (every simple coroot, a row of C, reduces to zero on it) as the
    inverse's integral rows say, each vector of the old basis mapped
    through C is a member, and each fundamental coweight is a member
    exactly when the old inverse says so."""
    rs = get_rs(label, rank)
    cartan = rs.datum.cartan_matrix
    olds = get_fraction_lattices(label, rank)
    cw = intmat.mat_inv(cartan)  # fundamental coweights, simple-coroot coords
    units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    for lat, old in zip(all_lattices(rs), olds):
        assert all(type(x) is int for row in lat.basis for x in row)
        assert intmat.hermite_row_basis(lat.basis) == [list(r) for r in lat.basis]
        assert all(x.denominator == 1 for row in old.basis_inv for x in row)
        assert all(affine.lattice_contains(lat, row) for row in cartan)
        for row in mat_mul(old.basis, cartan):
            assert affine.lattice_contains(lat, [int(x) for x in row])
        assert [affine.lattice_contains(lat, e) for e in units] == \
            [old.contains(row) for row in cw]


def test_minuscule_nodes(get_rs):
    assert minuscule_nodes(get_rs("A", 3)) == (1, 2, 3)
    assert minuscule_nodes(get_rs("B", 3)) == (1,)
    assert minuscule_nodes(get_rs("C", 3)) == (3,)
    assert minuscule_nodes(get_rs("D", 5)) == (1, 4, 5)
    assert minuscule_nodes(get_rs("E", 6)) == (1, 6)
    assert minuscule_nodes(get_rs("E", 7)) == (7,)
    assert minuscule_nodes(get_rs("E", 8)) == ()
    assert minuscule_nodes(get_rs("F", 4)) == ()
    assert minuscule_nodes(get_rs("G", 2)) == ()


def test_simply_connected_has_trivial_stabilizer(get_rs):
    rs = get_rs("D", 5)
    group = lattice_classes(simply_connected_lattice(rs), omega_group(rs))
    assert len(group) == 1
    assert group[0].sigma.is_identity()


def test_d5_adjoint_group_matches_plate(get_rs):
    rs = get_rs("D", 5)
    group = omega_group(rs)
    assert sorted(om.order() for om in group) == [1, 2, 4, 4]
    # the generator printed in Bourbaki's plate: (a1 a4 -theta a5)(a2 a3)
    gen = next(om for om in group if om.diagram_perm == (5, 4, 3, 2, 0, 1))
    assert cycle_of(gen.diagram_perm, 1) == (1, 4, 0, 5)
    assert cycle_of(gen.diagram_perm, 2) == (2, 3)
    # and it really is a group: closure under multiplication
    perms = {om.sigma.perm for om in group}
    for a in group:
        for b in group:
            assert (a.sigma * b.sigma).perm in perms


def test_e6_adjoint_group_matches_plate(get_rs):
    rs = get_rs("E", 6)
    group = omega_group(rs)
    assert sorted(om.order() for om in group) == [1, 3, 3]
    gen = next(om for om in group if om.diagram_perm == (6, 0, 5, 2, 4, 3, 1))
    # (alpha1, -theta, alpha6)(alpha3, alpha2, alpha5)(alpha4)
    assert cycle_of(gen.diagram_perm, 1) == (1, 0, 6)
    assert cycle_of(gen.diagram_perm, 3) == (3, 2, 5)
    assert gen.diagram_perm[4] == 4


def test_omega_order_and_marks_all_types(get_rs):
    """Order equals the affine-node orbit size; marks are preserved."""
    for label, rank in (("A", 4), ("A", 6), ("B", 4), ("C", 4), ("D", 4),
                        ("D", 6), ("E", 7)):
        rs = get_rs(label, rank)
        mk = (1,) + tuple(marks(rs))
        for lat in all_lattices(rs):
            for om in lattice_classes(lat, omega_group(rs)):
                perm = om.diagram_perm
                assert diagram_permutation(rs, om.sigma) == perm
                orbit = cycle_of(perm, 0)
                assert om.sigma.is_identity() or \
                    om.sigma.order() == len(orbit)
                for j in range(rs.rank + 1):
                    assert mk[perm[j]] == mk[j]


def test_type_a_quotients(get_rs):
    rs = get_rs("A", 5)
    lats = all_lattices(rs)
    assert [lat.name for lat in lats] == \
        ["simply-connected", "SL6/mu2", "SL6/mu3", "adjoint"]
    assert [lat.index_in_coroot for lat in lats] == [1, 2, 3, 6]
    assert len(lattice_classes(type_a_quotient_lattice(rs, 3), omega_group(rs))) == 3


def test_half_spin_lattices_even_rank_only(get_rs):
    rs4 = get_rs("D", 4)
    lats = all_lattices(rs4)
    assert [lat.name for lat in lats] == \
        ["simply-connected", "SO", "half-spin-3", "half-spin-4", "adjoint"]
    with pytest.raises(ValueError):
        half_spin_lattice(get_rs("D", 5), 5)
    with pytest.raises(ValueError):
        vector_lattice(get_rs("B", 3))


def test_d5_sigma_rs_matches_displayed_sets(get_rs):
    rs = get_rs("D", 5)
    group = omega_group(rs)
    gen = next(om for om in group if om.diagram_perm == (5, 4, 3, 2, 0, 1))
    datum = sigma_rs(gen)
    assert rs.roots[datum.r_root] == (0, 0, 0, 1, 0)
    assert rs.roots[datum.s_root] == (1, 0, 0, 0, 0)

    def part(vals):
        return frozenset(rs.index[v] for v in vals)

    assert datum.parts[0] == part([(0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                                   (0, 0, 0, 0, 1), (0, 1, 1, 0, 0),
                                   (0, 0, 1, 0, 1), (0, 1, 1, 0, 1)])
    assert datum.parts[1] == part([(1, 0, 0, 0, 0), (1, 1, 0, 0, 0),
                                   (1, 1, 1, 0, 0), (1, 1, 1, 0, 1)])
    assert datum.parts[2] == part([(0, 0, 0, 1, 0), (0, 0, 1, 1, 0),
                                   (0, 1, 1, 1, 0), (0, 0, 1, 1, 1),
                                   (0, 1, 1, 1, 1), (0, 1, 2, 1, 1)])
    assert datum.parts[3] == part([(1, 1, 1, 1, 0), (1, 1, 1, 1, 1),
                                   (1, 1, 2, 1, 1), (1, 2, 2, 1, 1)])
    assert datum.fiber_sizes == (3, 2, 3)
    assert len(datum.triples) == 12


def test_e6_sigma_rs(get_rs):
    rs = get_rs("E", 6)
    group = omega_group(rs)
    gen = next(om for om in group if om.diagram_perm == (6, 0, 5, 2, 4, 3, 1))
    datum = sigma_rs(gen)
    assert rs.roots[datum.r_root] == (1, 0, 0, 0, 0, 0)
    assert rs.roots[datum.s_root] == (0, 0, 0, 0, 0, 1)
    assert datum.fiber_sizes == (4, 4, 4)


@pytest.mark.parametrize("label, rank, kept", [("E", 6, (1,)), ("D", 5, (1, 4)),
                                              ("A", 3, ())])
def test_a_dropped_class_trips_the_det_c_count(monkeypatch, get_rs, label,
                                               rank, kept):
    """omega_group counts its classes against det C = |P^vee / Q^vee|."""
    rs = get_rs(label, rank)
    monkeypatch.setattr(affine, "minuscule_nodes", lambda rs: kept)
    with pytest.raises(AssertionError, match=f"found {len(kept) + 1} classes, "
                                             f"lattice index is {rs.cartan_det}"):
        omega_group(rs)


def test_sigma_rs_rejects_low_order(get_rs):
    rs = get_rs("D", 5)
    group = omega_group(rs)
    invol = next(om for om in group if om.order() == 2)
    with pytest.raises(ValueError):
        sigma_rs(invol)
    with pytest.raises(ValueError):
        sigma_rs(group[0])


def test_second_difference_d5_e6_all_roots(get_rs):
    for label, rank, sizes in (("D", 5, (3, 2, 3)), ("E", 6, (4, 4, 4))):
        rs = get_rs(label, rank)
        group = omega_group(rs)
        gen = next(om for om in group if om.order() >= 3)
        datum = sigma_rs(gen)
        assert datum.fiber_sizes == sizes
        for a in range(rs.nroots):
            assert check_second_difference(datum, a)


@pytest.mark.parametrize("label,rank", [("A", 5), ("A", 7), ("D", 5),
                                        ("D", 7), ("E", 6)])
def test_second_difference_matches_the_table_oracle(label, rank, get_rs):
    """F_w(a), the coroot sum over the (1,0) part paired with a, equals the
    table row sum there, and the identity holds with the table's value."""
    rs = get_rs(label, rank)
    h = rs.coxeter_number
    found = 0
    for om in omega_group(rs):
        if om.order() < 3:
            continue
        found += 1
        datum = sigma_rs(om)
        part = datum.parts[2]
        s = rs.coroot_sum(part)
        assert datum.flip_coroot_sum == s
        w, c = om.sigma, datum.fiber_sizes[2]
        for a in range(rs.nroots):
            fw = sum(rs.pairing[a][b] for b in part)
            assert sum(x * y for x, y in zip(rs._psc[a], s)) == fw
            assert fw == weyl.flip_functional(w, w, a)
            wa, w2a = w.perm[a], w.perm[w.perm[a]]
            assert h * fw == c * (rs.heights[a] - 2 * rs.heights[wa]
                                  + rs.heights[w2a])
            assert check_second_difference(datum, a)
    assert found >= 1


def test_second_difference_reads_the_stored_coroot_sum(monkeypatch, get_rs):
    """``sigma_rs`` sums the (1,0)-part coroots once per datum; the check
    itself, run at every root, sums no coroots."""
    rs = get_rs("E", 6)
    datum = sigma_rs(next(om for om in omega_group(rs) if om.order() >= 3))

    def refused(self, roots):
        raise AssertionError("coroot_sum called per root")

    monkeypatch.setattr(type(rs), "coroot_sum", refused)
    assert all(check_second_difference(datum, a) for a in range(rs.nroots))


def test_second_difference_at_r_gives_even_value(get_rs):
    rs = get_rs("D", 5)
    group = omega_group(rs)
    gen = next(om for om in group if om.order() == 4)
    datum = sigma_rs(gen)
    h = rs.coxeter_number
    c = datum.fiber_sizes[2]
    # at R: h * F_w(R) = c * [1 - 2(1-h) + 1] = 2 c h
    assert h * flip_sum_at_r(gen) == 2 * c * h
    assert flip_sum_at_r(gen) == 6


def test_constant_fibers_all_eligible_types_rank_le_8(get_rs):
    """Exhaustive triple enumeration is the oracle: every projection of
    every eligible type has constant fibers, a = c, and a + b + c = h."""
    eligible = [("A", r) for r in range(2, 9)] + \
        [("D", 5), ("D", 7), ("E", 6)]
    for label, rank in eligible:
        rs = get_rs(label, rank)
        group = omega_group(rs)
        found = 0
        for om in group:
            if om.order() < 3:
                continue
            found += 1
            datum = sigma_rs(om)  # constancy asserted inside
            a, b, c = datum.fiber_sizes
            assert a == c
            assert a + b + c == rs.coxeter_number
        assert found >= 1, (label, rank)


def test_fiber_weighted_coroot_relation(get_rs):
    """a*(sum of (0,1) coroots) + b*(sum of (1,0)) = c*(sum of (1,1))."""
    for label, rank in (("A", 3), ("A", 6), ("D", 5), ("E", 6)):
        rs = get_rs(label, rank)
        for om in omega_group(rs):
            if om.order() < 3:
                continue
            datum = sigma_rs(om)
            a, b, c = datum.fiber_sizes

            def coroot_sum(part):
                return tuple(sum(rs.coroots[k][j] for k in part)
                             for j in range(rs.rank))

            lhs = tuple(a * x + b * y for x, y in
                        zip(coroot_sum(datum.parts[1]),
                            coroot_sum(datum.parts[2])))
            rhs = tuple(c * z for z in coroot_sum(datum.parts[3]))
            assert lhs == rhs


def test_flip_sum_even_rank_le_6(get_rs):
    for label, rank in (("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                        ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
                        ("C", 3), ("C", 4), ("C", 5), ("C", 6),
                        ("D", 4), ("D", 5), ("D", 6), ("E", 6)):
        rs = get_rs(label, rank)
        for om in omega_group(rs):
            if om.order() >= 2:
                assert check_flip_sum_even(om), (label, rank)


def test_type_d_order_four_family(get_rs):
    """Order-4 projections exist exactly in odd rank; there the value at R
    is 2*rank - 4.  Even ranks have Klein four groups, so the family is
    empty there; involutions instead give the Coxeter number."""
    for rank in (4, 5, 6, 7):
        rs = get_rs("D", rank)
        group = omega_group(rs)
        orders = sorted(om.order() for om in group)
        if rank % 2 == 1:
            assert orders == [1, 2, 4, 4]
            for om in group:
                if om.order() == 4:
                    assert flip_sum_at_r(om) == 2 * rank - 4
        else:
            assert orders == [1, 2, 2, 2]
            for om in group:
                if om.order() == 2:
                    assert flip_sum_at_r(om) == rs.coxeter_number


def test_e7_involution_flip_sum_is_coxeter_number(get_rs):
    rs = get_rs("E", 7)
    assert rs.coxeter_number == 18
    group = omega_group(rs)
    invol = next(om for om in group if om.order() == 2)
    assert flip_sum_at_r(invol) == 18


def test_class_representatives_live_in_their_lattice(get_rs,
                                                    get_fraction_lattices):
    """Each class representative is the int unit vector e_node, the
    fundamental coweight, and lies in its lattice by both routes."""
    rs = get_rs("D", 4)
    cw = intmat.mat_inv(rs.datum.cartan_matrix)  # simple-coroot coords
    for lat, old in zip(all_lattices(rs), get_fraction_lattices("D", 4)):
        for om in lattice_classes(lat, omega_group(rs)):
            assert all(type(x) is int for x in om.class_rep)
            if om.class_node is not None:
                assert affine.lattice_contains(lat, om.class_rep)
                assert old.contains(cw[om.class_node - 1])
                assert om.class_rep == tuple(int(i == om.class_node - 1)
                                             for i in range(rs.rank))
            else:
                assert om.class_rep == (0,) * rs.rank


PAIRING_TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in (2, 3, 4)]
                 + [("C", n) for n in (2, 3, 4)] + [("D", n) for n in (4, 5, 6, 7)]
                 + [("E", n) for n in (6, 7, 8)] + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("label,rank", PAIRING_TYPES)
def test_lattice_pairing_matches_fraction_oracle(label, rank, get_rs,
                                                 get_fraction_lattices):
    """pairing[i][k] = <alpha_i, basis_k> is the transpose of the basis,
    and its rows span what the Fraction route's pairing spans: the
    Hermite form of the old pairing's columns is the basis."""
    rs = get_rs(label, rank)
    for lat, old in zip(all_lattices(rs), get_fraction_lattices(label, rank)):
        assert lat.pairing == tuple(zip(*lat.basis))
        assert all(type(x) is int for row in lat.pairing for x in row)
        assert intmat.hermite_row_basis(list(zip(*old.pairing))) == \
            [list(row) for row in lat.basis]


def test_fractional_pairing_is_rejected(get_rs):
    """A1 with the extra row varpi^vee / 4 contains Q^vee but does not
    lie in P^vee."""
    with pytest.raises(ValueError, match="coweight lattice"):
        affine._make_lattice(get_rs("A", 1), "quarter", [[Fraction(1, 4)]])


ORACLE_TYPES = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
                + [("C", n) for n in range(2, 6)] + [("D", n) for n in (4, 5, 6)])


@pytest.mark.parametrize("label,rank", ORACLE_TYPES)
def test_sigma_matches_brute_force_oracle(label, rank, get_rs):
    """Walk all of W: for each minuscule node j exactly one element
    permutes the affine simple gradients with node 0 sent to j, and it is
    the projection that omega_group lists for class j."""
    rs = get_rs(label, rank)
    found = {}
    for w in weyl.enumerate_group(rs):
        perm = diagram_permutation(rs, w)
        if perm is not None:
            found.setdefault(perm[0], []).append(w)
    assert sorted(found) == [0, *minuscule_nodes(rs)]
    assert found[0] == [weyl.identity(rs)]
    group = omega_group(rs)
    for om in group[1:]:
        assert found[om.class_node] == [om.sigma]
