import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import mat_mul
from weylrep import affine, cli, intmat
from weylrep.affine import (
    adjoint_lattice,
    all_lattices,
    half_spin_lattice,
    lattice_classes,
    omega_group,
    simply_connected_lattice,
    type_a_quotient_lattice,
    vector_lattice,
)
from weylrep.fixer import (
    ConnectingCharacter,
    GenericFunctional,
    InconsistentSystemError,
    UnitGroup,
    build_system,
    connecting_character,
    node_signs,
    obstruction,
    random_functional,
    solve,
)
from weylrep.rootsys import root_system

QS = (5, 7, 13)


def units_for(q):
    return UnitGroup(q - 1)


def test_unit_group_sign_log():
    u = UnitGroup(4)
    assert u.sign_log(1) == 0
    assert u.sign_log(-1) == 2
    assert UnitGroup(5).sign_log(-1) == 0  # odd order: -1 = 1 in the field
    with pytest.raises(ValueError):
        u.sign_log(3)


def test_identity_class_system_is_trivial(get_rs, get_scalars):
    rs = get_rs("B", 3)
    _, scalars = get_scalars("B", 3)
    units = units_for(5)
    lat = adjoint_lattice(rs)
    ident = omega_group(rs)[0]
    lam = GenericFunctional(tuple(range(rs.rank + 1)))
    system = build_system(rs, lat, ident, lam, scalars, units)
    assert all(t == 0 for t in system.targets)
    witness = solve(system)
    assert witness == (0,) * rs.rank


def test_row_product_redundancy(get_rs, get_scalars):
    """Multiplicity-weighted product of the rows is the relation character,
    hence 1; the zeroth row is implied by the others."""
    rng = random.Random(12)
    for label, rank in (("A", 3), ("D", 5), ("E", 6)):
        rs = get_rs(label, rank)
        _, scalars = get_scalars(label, rank)
        lat = adjoint_lattice(rs)
        mk = (1,) + tuple(rs.roots[rs.highest_root])
        for om in omega_group(rs):
            for q in QS:
                units = units_for(q)
                lam = random_functional(rng, units, rs.rank)
                system = build_system(rs, lat, om, lam, scalars, units)
                acc = sum(m * t for m, t in zip(mk, system.targets))
                assert acc % units.order == 0


def test_passed_node_signs_give_the_same_system(get_rs, get_scalars):
    """``build_system`` with a class's ``node_signs`` returns what it
    returns when it reads the scalars itself."""
    rng = random.Random(16)
    for label, rank in (("A", 3), ("D", 5), ("E", 6)):
        rs = get_rs(label, rank)
        _, scalars = get_scalars(label, rank)
        for lat in all_lattices(rs):
            for om in lattice_classes(lat, omega_group(rs)):
                signs = node_signs(rs, om, scalars)
                assert set(signs) <= {1, -1} and len(signs) == rank + 1
                for q in QS:
                    units = units_for(q)
                    lam = random_functional(rng, units, rs.rank)
                    assert build_system(rs, lat, om, lam, scalars, units, signs) == \
                        build_system(rs, lat, om, lam, scalars, units)


def test_adjoint_system_always_solvable_with_unique_witness(get_rs,
                                                            get_scalars):
    rs = get_rs("D", 5)
    _, scalars = get_scalars("D", 5)
    lat = adjoint_lattice(rs)
    rng = random.Random(3)
    om = next(o for o in omega_group(rs) if o.order() == 4)
    units = units_for(5)
    for _ in range(25):
        lam = random_functional(rng, units, rs.rank)
        system = build_system(rs, lat, om, lam, scalars, units)
        w = solve(system)
        assert w is not None
        # fundamental-coweight basis: the pairing matrix is the identity,
        # so the witness is forced coordinatewise
        assert w == tuple(t % units.order for t in system.targets[1:])


def test_so_lattice_explicit_recipe(get_rs, get_scalars):
    """The hand-built solution in epsilon coordinates solves the system."""
    for rank in (4, 5, 6):
        rs = get_rs("D", rank)
        _, scalars = get_scalars("D", rank)
        lat = vector_lattice(rs)
        om = next(o for o in lattice_classes(lat, omega_group(rs)) if o.order() == 2)
        assert om.class_node == 1
        rng = random.Random(rank)
        for q in QS:
            units = units_for(q)
            n = units.order
            lam = random_functional(rng, units, rs.rank)
            system = build_system(rs, lat, om, lam, scalars, units)
            got = solve(system)
            assert got is not None
            # epsilon basis: eps_1 = fundamental coweight 1, then
            # eps_{i+1} = eps_i - alpha_i-check
            eps = [intmat.mat_inv(rs.datum.cartan_matrix)[0]]
            for i in range(rs.rank - 1):
                nxt = list(eps[-1])
                nxt[i] -= 1
                eps.append(nxt)
            recipe = [0] * rs.rank
            recipe[0] = system.targets[1]
            recipe[rs.rank - 1] = \
                (-lam.values[rs.rank] + lam.values[rs.rank - 1]) % n
            # verify the recipe satisfies every row via the epsilon basis
            cartan = rs.datum.cartan_matrix
            for i in range(rs.rank):
                val = 0
                for k in range(rs.rank):
                    pair = sum(Fraction(eps[k][j]) * cartan[j][i]
                               for j in range(rs.rank))
                    val += int(pair) * recipe[k]
                assert val % n == system.targets[i + 1] % n


def test_inconsistent_system_diagnostic(get_rs, get_scalars, monkeypatch):
    """A sign defect in the scalar values breaks the redundancy: the row
    product stops being 1 and the build refuses the system."""
    import weylrep.fixer as fx

    rs = get_rs("D", 5)
    _, scalars = get_scalars("D", 5)
    lat = adjoint_lattice(rs)
    om = next(o for o in omega_group(rs) if o.order() == 4)
    units = units_for(5)
    lam = GenericFunctional((0,) * (rs.rank + 1))
    real_c_word = fx.c_word

    def bad_c_word(sc, w, a):
        val = real_c_word(sc, w, a)
        return -val if a == rs.neg[rs.highest_root] else val

    monkeypatch.setattr(fx, "c_word", bad_c_word)
    with pytest.raises(InconsistentSystemError):
        build_system(rs, lat, om, lam, scalars, units)


def test_full_grid_solvability(get_rs, get_scalars):
    """Every lattice, every class, 50 seeded functionals per q in
    {5, 7, 13}: a witness must always exist."""
    rng = random.Random(20240901)
    grid = [("A", r) for r in range(1, 7)] + \
        [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
         ("D", 4), ("D", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6)]
    for label, rank in grid:
        rs = get_rs(label, rank)
        _, scalars = get_scalars(label, rank)
        for lat in all_lattices(rs):
            for om in lattice_classes(lat, omega_group(rs)):
                for q in QS:
                    units = units_for(q)
                    for _ in range(50):
                        lam = random_functional(rng, units, rs.rank)
                        system = build_system(rs, lat, om, lam, scalars, units)
                        assert solve(system) is not None, \
                            (label, rank, lat.name, om.class_node, q)


def test_connecting_character_pgl3(get_rs):
    rs = get_rs("A", 2)
    cc = connecting_character(rs, simply_connected_lattice(rs))
    assert cc == ConnectingCharacter((1, 2), 3)


def test_connecting_character_equal_lattices(get_rs):
    rs = get_rs("A", 2)
    cc = connecting_character(rs, adjoint_lattice(rs))
    assert cc.d == 1
    assert cc.coeffs == (0, 0)


def test_connecting_character_rejects_noncyclic(get_rs):
    rs = get_rs("D", 4)
    with pytest.raises(ValueError):
        connecting_character(rs, simply_connected_lattice(rs))


def test_connecting_character_brute_force_image(get_rs, get_fraction_lattices):
    """chi kills exactly the image of the small torus's points (q = 5 and
    13, D4 SO in adjoint and A2 SC in adjoint): exhaustive enumeration,
    with the tori and the inclusion taken from the Fraction route."""
    cases = [("D", 4, vector_lattice, 13), ("A", 2, simply_connected_lattice, 13),
             ("A", 2, simply_connected_lattice, 5)]
    for label, rank, make_small, q in cases:
        rs = get_rs(label, rank)
        small = make_small(rs)
        cc = connecting_character(rs, small)
        olds = get_fraction_lattices(label, rank)
        old_small = next(old for old in olds if old.name == small.name)
        big = olds[-1]
        n = q - 1
        modulus = _gcd(cc.d, n)
        if modulus == 1:
            continue
        # map small-basis points into big coordinates
        phi = mat_mul([list(r) for r in old_small.basis], big.basis_inv)
        phi = [[int(x) for x in row] for row in phi]

        def chi_of(point):
            val = 0
            for i in range(rs.rank):
                val += cc.coeffs[i] * sum(big.pairing[i][k] * point[k]
                                          for k in range(rs.rank))
            return val % modulus

        image = set()
        for small_pt in itertools.product(range(n), repeat=rs.rank):
            big_pt = tuple(sum(small_pt[j] * phi[j][k] for j in range(rs.rank)) % n
                           for k in range(rs.rank))
            image.add(big_pt)
        kernel = {pt for pt in itertools.product(range(n), repeat=rs.rank)
                  if chi_of(pt) == 0}
        assert image == kernel, (label, rank, q)


def _adapted_basis_character(rs, small, big):
    """Reference route on Fraction-route lattices: invert v, build the
    adapted basis of the big lattice and invert its pairing matrix with
    the simple roots."""
    rank = rs.rank
    c = mat_mul(small.basis, big.basis_inv)
    if any(Fraction(x).denominator != 1 for row in c for x in row):
        raise ValueError("small lattice is not contained in the big one")
    d_mat, _, v = intmat.smith_normal_form([[int(x) for x in row] for row in c])
    diag = [d_mat[i][i] for i in range(rank)]
    nontrivial = [x for x in diag if x != 1]
    if not nontrivial:
        return ConnectingCharacter((0,) * rank, 1)
    if len(nontrivial) > 1:
        raise ValueError(f"quotient is not cyclic: invariant factors {diag}")
    d = nontrivial[0]
    adapted = mat_mul(intmat.mat_inv(v), big.basis)
    pf = [[sum(Fraction(adapted[k][j]) * rs.datum.cartan_matrix[j][i]
               for j in range(rank)) for k in range(rank)]
          for i in range(rank)]
    row = intmat.mat_inv(pf)[rank - 1]
    if any(Fraction(x).denominator != 1 for x in row):
        raise ValueError("boundary character is not a root-lattice element; "
                         "the big lattice must be the coweight lattice")
    units = [u for u in range(1, d) if _gcd(u, d) == 1]
    return ConnectingCharacter(
        min(tuple((u * int(x)) % d for x in row) for u in units), d)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


PAIR_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 8)]
              + [("C", n) for n in range(2, 8)] + [("D", n) for n in range(3, 9)]
              + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_connecting_character_matches_the_adapted_basis_route(
        get_rs, get_fraction_lattices):
    """The last column of v from the Smith form of the small basis gives
    the character that the Fraction route's adapted basis of P^vee gives,
    error or value, for every lattice of every type listed (77 pairs)."""
    outcomes = []
    for label, rank in PAIR_TYPES:
        rs = get_rs(label, rank)
        olds = get_fraction_lattices(label, rank)
        for small, old in zip(all_lattices(rs), olds):
            got = _outcome(connecting_character, rs, small)
            assert got == _outcome(_adapted_basis_character, rs, old, olds[-1]), \
                (label, rank, small.name)
            outcomes.append(got)
    assert len(outcomes) == 77
    errors = {x.split(":")[0] for x in outcomes if isinstance(x, str)}
    assert errors == {"quotient is not cyclic"}


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_obstruction_vanishes_on_adjoint_and_type_a(get_rs, get_scalars):
    rng = random.Random(44)
    # adjoint target: d = 1, class is trivially zero
    rs = get_rs("A", 3)
    _, scalars = get_scalars("A", 3)
    lat = adjoint_lattice(rs)
    for om in omega_group(rs):
        for q in QS:
            units = units_for(q)
            lam = random_functional(rng, units, rs.rank)
            ob = obstruction(rs, lat, om, lam, scalars, units)
            assert ob.vanishes()
    # intermediate type A lattices: the class always lifts
    for rank, m in ((3, 2), (5, 2), (5, 3)):
        rs = get_rs("A", rank)
        _, scalars = get_scalars("A", rank)
        lat = type_a_quotient_lattice(rs, m)
        for om in lattice_classes(lat, omega_group(rs)):
            for q in QS:
                units = units_for(q)
                for _ in range(10):
                    lam = random_functional(rng, units, rs.rank)
                    ob = obstruction(rs, lat, om, lam, scalars, units)
                    assert ob.vanishes()
                    # cross-check: vanishing obstruction <-> solvable system
                    system = build_system(rs, lat, om, lam, scalars, units)
                    assert (solve(system) is not None) == ob.vanishes()


def test_obstruction_vanishes_on_half_spin(get_rs, get_scalars):
    rng = random.Random(45)
    for rank in (4, 6):
        rs = get_rs("D", rank)
        _, scalars = get_scalars("D", rank)
        for node in (rank - 1, rank):
            lat = half_spin_lattice(rs, node)
            for om in lattice_classes(lat, omega_group(rs)):
                if om.class_node is None:
                    continue
                for q in QS:
                    units = units_for(q)
                    for _ in range(10):
                        lam = random_functional(rng, units, rs.rank)
                        ob = obstruction(rs, lat, om, lam, scalars, units)
                        assert ob.vanishes()


def test_obstruction_invariant_under_rebasing(get_rs, get_scalars):
    """The adjoint witness is unique, so the class cannot depend on how the
    adjoint lattice was presented; re-derive it under permuted bases."""
    rs = get_rs("A", 5)
    _, scalars = get_scalars("A", 5)
    lat = type_a_quotient_lattice(rs, 3)
    rng = random.Random(46)
    units = units_for(13)
    oms = [om for om in lattice_classes(lat, omega_group(rs))
           if om.class_node is not None]
    for om in oms:
        for _ in range(20):
            lam = random_functional(rng, units, rs.rank)
            first = obstruction(rs, lat, om, lam, scalars, units)
            second = obstruction(rs, lat, om, lam, scalars, units)
            assert first == second
            assert first.vanishes()


def test_degenerate_power_classes(get_rs, get_scalars):
    """d coprime to q-1 collapses the obstruction group entirely."""
    rs = get_rs("A", 4)  # d = 5 against N in {4, 6, 12}
    _, scalars = get_scalars("A", 4)
    lat = simply_connected_lattice(rs)
    cc = connecting_character(rs, lat)
    assert cc.d == 5
    rng = random.Random(47)
    for q in QS:
        units = units_for(q)
        om = lattice_classes(lat, omega_group(rs))[0]
        lam = random_functional(rng, units, rs.rank)
        ob = obstruction(rs, lat, om, lam, scalars, units)
        assert ob.modulus == 1 and ob.vanishes()


HELD_SNF_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                  + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("label, rank", HELD_SNF_TYPES)
def test_held_smith_form_solves_like_a_fresh_one(label, rank, get_rs):
    """Each lattice's held Smith form is its pairing's, and solving with it
    gives exactly what a fresh factorisation gives, solvable or not."""
    rs = get_rs(label, rank)
    rng = random.Random(f"held-snf/{label}{rank}")
    for lat in all_lattices(rs):
        m = [list(row) for row in lat.pairing]
        fresh = intmat.smith_normal_form(m)
        assert lat.pairing_snf == fresh
        assert lat.pairing_snf is lat.pairing_snf
        for n in (4, 6, 8, 12, 16):
            assert lat.mod_solver(n) is lat.mod_solver(n)
            for _ in range(4):
                b = [rng.randrange(n) for _ in range(rank)]
                assert intmat.solve_mod(lat.mod_solver(n), b) == \
                    intmat.solve_mod(intmat.prepare_mod(m, fresh, n), b)


@pytest.mark.parametrize("label, rank", HELD_SNF_TYPES)
def test_prepared_solve_returns_the_per_row_solution(label, rank, get_rs,
                                                     per_row_solve_mod):
    """The held solver of each lattice and modulus gives exactly the
    tuple, or None, of solving the Smith system row by row."""
    rs = get_rs(label, rank)
    rng = random.Random(f"prepared/{label}{rank}")
    moduli = (1, 2, 3, 4, 6, 8, 9, 12, 16)
    outcomes = set()
    for lat in all_lattices(rs):
        for n in moduli:
            for _ in range(6):
                b = [rng.randrange(n) for _ in range(rank)]
                x = intmat.solve_mod(lat.mod_solver(n), b)
                assert x == per_row_solve_mod(lat.pairing, lat.pairing_snf, b, n)
                outcomes.add(x is None)
    # the simply-connected pairing is the Cartan matrix, so some b is
    # unsolvable once det C shares a factor with a modulus
    shares = any(gcd(rs.cartan_det, n) > 1 for n in moduli)
    assert outcomes == ({False, True} if shares else {False})


def test_fixer_sweep_prepares_one_solver_per_lattice_and_q(monkeypatch):
    """An A5 sweep prepares each (lattice, q) solver once and solves once
    per sampled functional."""
    calls = {"prepare_mod": [], "solve_mod": []}
    for name, seen in calls.items():
        real = getattr(intmat, name)

        def counting(*args, real=real, seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(intmat, name, counting)
    cfg = cli.load_config(None)
    cfg.update(systems=[{"type": "A", "rank": 5}], qs=[5, 7, 13],
               checks={"fixer": True})
    report = cli.run_sweep(cfg)
    assert report["status"] == "pass"
    (entry,) = report["checks"]
    lats = affine.all_lattices(root_system("A", 5))
    assert len(lats) == 4
    assert sorted((m, n) for m, _, n in calls["prepare_mod"]) == \
        sorted((lat.pairing, q - 1) for lat in lats for q in (5, 7, 13))
    assert len(calls["solve_mod"]) == entry["count"] == 720


def test_corrupted_held_smith_form_trips_the_witness_check(get_rs, get_scalars,
                                                           monkeypatch):
    """A Smith form whose v is still unimodular but wrong gives a wrong
    solution, which solve_mod's per-solve witness check rejects."""
    rs = get_rs("A", 2)
    _, scalars = get_scalars("A", 2)
    real = intmat.smith_normal_form

    def corrupted(m):
        d, u, v = real(m)
        v = [list(row) for row in v]
        v[0][1] += 1
        return d, u, v

    monkeypatch.setattr(intmat, "smith_normal_form", corrupted)
    lat = adjoint_lattice(rs)  # pairing, d, u and v are all the identity
    om = next(o for o in omega_group(rs) if o.class_node is not None)
    units = units_for(13)
    system = build_system(rs, lat, om, GenericFunctional((0, 1, 5)), scalars,
                          units)
    assert system.targets[2] % units.order != 0  # so v's fault moves x
    with pytest.raises(AssertionError, match="bad witness"):
        solve(system)
    monkeypatch.undo()
    assert solve(build_system(rs, adjoint_lattice(rs), om,
                              GenericFunctional((0, 1, 5)), scalars,
                              units)) is not None


@pytest.mark.parametrize("label, rank", HELD_SNF_TYPES)
def test_held_zeroth_row_is_minus_theta_paired_with_the_basis(label, rank,
                                                             get_rs):
    rs = get_rs(label, rank)
    theta = rs.roots[rs.highest_root]
    for lat in all_lattices(rs):
        assert lat.pairing_row0 == tuple(
            -sum(theta[i] * lat.pairing[i][k] for i in range(rank))
            for k in range(rank))


def test_corrupted_held_zeroth_row_trips_the_zeroth_row_check(get_rs,
                                                              get_scalars):
    """solve checks every witness against the lattice's held zeroth row."""
    rs = get_rs("A", 2)
    _, scalars = get_scalars("A", 2)
    lat = adjoint_lattice(rs)
    om = next(o for o in omega_group(rs) if o.class_node is not None)
    lam = GenericFunctional((0, 1, 5))
    units = units_for(13)
    x = solve(build_system(rs, lat, om, lam, scalars, units))
    k = next(k for k, xk in enumerate(x) if xk % units.order)
    row0 = list(lat.pairing_row0)
    row0[k] += 1
    bad = lat._replace(pairing_row0=tuple(row0))
    with pytest.raises(AssertionError, match="zeroth row"):
        solve(build_system(rs, bad, om, lam, scalars, units))
