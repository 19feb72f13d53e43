import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okubo import polys
from okubo.errors import SingularMatrix
from okubo.fields import GF
from okubo.linalg import (
    CoordinateSolver,
    Matrix,
    Subspace,
    nullspace,
    rref,
)
from scalar_reference import (
    AmbientMismatch,
    charpoly,
    contains,
    coordinates_of,
    from_rows,
    full_space,
    intersect,
    is_zero,
    solve,
    spin,
    sum_with,
    zero_space,
)


def random_matrix(field, rng, m, n):
    return Matrix(field, [[field.random_scalar(rng) for _ in range(n)] for _ in range(m)])


class TestRref:
    def test_identity(self, gf3):
        ident = Matrix.identity(gf3, 3)
        red, rank, pivots = rref(ident)
        assert red == ident and rank == 3 and pivots == [0, 1, 2]

    def test_zero(self, gf3):
        z = Matrix.zeros(gf3, 3, 3)
        red, rank, _ = rref(z)
        assert is_zero(red) and rank == 0

    def test_rank_one_gf5(self, gf5):
        m = from_rows(gf5, [[1, 2], [2, 4]])
        _, rank, _ = rref(m)
        assert rank == 1

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "q(w)", "gf(3^2;t^2+1)"])
    def test_idempotent(self, spec):
        from okubo.fields import field_from_spec

        field = field_from_spec(spec)
        rng = random.Random(5)
        for _ in range(15):
            m = random_matrix(field, rng, 4, 6)
            r1, k1, p1 = rref(m)
            r2, k2, p2 = rref(r1)
            assert (r1, k1, p1) == (r2, k2, p2)

    def test_pivot_entries_normalized(self, gf7):
        rng = random.Random(6)
        m = random_matrix(gf7, rng, 5, 5)
        red, rank, pivots = rref(m)
        for r, c in enumerate(pivots):
            assert red[r, c] == gf7.one
            for i in range(red.nrows):
                if i != r:
                    assert not red[i, c]


class TestNullspace:
    def test_identity_trivial(self, gf3):
        assert nullspace(Matrix.identity(gf3, 4)).dim == 0

    def test_zero_full(self, gf3):
        assert nullspace(Matrix.zeros(gf3, 4, 4)).dim == 4

    def test_row_gf3(self, gf3):
        ns = nullspace(from_rows(gf3, [[1, 1, 1]]))
        assert ns.dim == 2

    @pytest.mark.parametrize("p", [3, 7])
    def test_vectors_annihilated_and_rank_nullity(self, p):
        field = GF(p)
        rng = random.Random(p)
        for _ in range(20):
            m = random_matrix(field, rng, rng.randrange(1, 6), rng.randrange(1, 7))
            ns = nullspace(m)
            _, rank, _ = rref(m)
            assert ns.dim == m.ncols - rank
            for v in ns.basis:
                assert all(not x for x in m.matvec(v))


class TestSubspace:
    def test_sum_self(self, gf3):
        u = Subspace.from_vectors(gf3, 3, [[1, 2, 0]])
        assert sum_with(u, u) == u

    def test_intersect_zero(self, gf3):
        u = Subspace.from_vectors(gf3, 3, [[1, 2, 0]])
        z = zero_space(gf3, 3)
        assert intersect(u, z) == z

    def test_two_lines_in_plane(self, gf5):
        u = Subspace.from_vectors(gf5, 2, [[1, 1]])
        v = Subspace.from_vectors(gf5, 2, [[1, 4]])
        assert sum_with(u, v) == full_space(gf5, 2)
        assert intersect(u, v).dim == 0

    def test_ambient_mismatch(self, gf3):
        u = Subspace.from_vectors(gf3, 3, [[1, 0, 0]])
        v = Subspace.from_vectors(gf3, 2, [[1, 0]])
        with pytest.raises(AmbientMismatch):
            sum_with(u, v)

    def test_contains_and_coordinates(self, gf7):
        rng = random.Random(11)
        vecs = [[gf7.random_scalar(rng) for _ in range(5)] for _ in range(3)]
        s = Subspace.from_vectors(gf7, 5, vecs)
        for v in vecs:
            coords = coordinates_of(s, v)
            assert coords is not None
            recon = [gf7.zero] * 5
            for c, row in zip(coords, s.basis):
                recon = [a + c * b for a, b in zip(recon, row)]
            assert tuple(recon) == tuple(v)

    @pytest.mark.parametrize("p", [3, 7])
    def test_dimension_formula_randomized(self, p):
        field = GF(p)
        rng = random.Random(p + 1)
        for _ in range(25):
            a = Subspace.from_vectors(
                field, 6,
                [[field.random_scalar(rng) for _ in range(6)] for _ in range(rng.randrange(1, 4))],
            )
            b = Subspace.from_vectors(
                field, 6,
                [[field.random_scalar(rng) for _ in range(6)] for _ in range(rng.randrange(1, 4))],
            )
            s = sum_with(a, b)
            i = intersect(a, b)
            assert s.dim + i.dim == a.dim + b.dim
            assert contains(s, a) and contains(s, b)
            assert contains(a, i) and contains(b, i)


@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_rref_row_space_preserved_hypothesis(rows):
    field = GF(3)
    m = from_rows(field, rows)
    red, rank, _ = rref(m)
    before = Subspace.from_vectors(field, 4, [list(r) for r in m.rows])
    after = Subspace.from_vectors(field, 4, [list(r) for r in red.rows])
    assert before == after
    assert before.dim == rank


class TestMatrixAlgebra:
    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "q(w)"])
    def test_cayley_hamilton(self, spec):
        from okubo.fields import field_from_spec

        field = field_from_spec(spec)
        rng = random.Random(13)
        for n in (2, 3, 4):
            a = random_matrix(field, rng, n, n)
            cp = charpoly(a)
            acc = Matrix.zeros(field, n, n)
            power = Matrix.identity(field, n)
            for c in cp:
                acc = acc + power * c
                power = power @ a
            assert is_zero(acc)

    def test_charpoly_known(self, gf3, qw):
        companion = from_rows(gf3, [[0, 2], [1, 0]])  # x^2 + 1
        assert [str(c) for c in charpoly(companion)] == ["1", "0", "1"]
        diag = from_rows(qw, [[2, 0], [0, 3]])
        # (x-2)(x-3) = x^2 - 5x + 6
        assert [str(c) for c in charpoly(diag)] == ["6", "-5", "1"]

    def test_det_matches_charpoly(self, gf7):
        rng = random.Random(17)
        for n in (2, 3, 4):
            a = random_matrix(gf7, rng, n, n)
            cp = charpoly(a)
            sign = gf7.one if n % 2 == 0 else -gf7.one
            assert a.det() == sign * cp[0]

    def test_minpoly_divides_charpoly(self, gf3):
        rng = random.Random(19)
        for _ in range(10):
            a = random_matrix(gf3, rng, 4, 4)
            mp = a.minpoly()
            _, rem = polys.poly_divmod(charpoly(a), mp, gf3)
            assert not rem

    def test_minpoly_known(self, gf7):
        assert [str(c) for c in Matrix.identity(gf7, 3).minpoly()] == ["6", "1"]
        nilp = from_rows(gf7, [[0, 1], [0, 0]])
        assert [str(c) for c in nilp.minpoly()] == ["0", "0", "1"]

    def test_inverse(self, gf7, qw):
        rng = random.Random(23)
        for field in (gf7, qw):
            found = 0
            while found < 5:
                a = random_matrix(field, rng, 3, 3)
                if a.det() == field.zero:
                    continue
                found += 1
                assert a @ a.inverse() == Matrix.identity(field, 3)
        with pytest.raises(SingularMatrix):
            Matrix.zeros(gf7, 2, 2).inverse()

    def test_solve(self, gf5):
        rng = random.Random(29)
        for _ in range(20):
            a = random_matrix(gf5, rng, 4, 3)
            x = [gf5.random_scalar(rng) for _ in range(3)]
            b = a.matvec(x)
            got = solve(a, b)
            assert got is not None
            assert a.matvec(got) == b
        # inconsistent system
        m = from_rows(gf5, [[1, 0], [1, 0]])
        assert solve(m, (gf5.one, gf5.zero)) is None


class TestSolversAndSpin:
    def test_coordinate_solver(self, gf7):
        rng = random.Random(31)
        vecs = [[gf7.random_scalar(rng) for _ in range(6)] for _ in range(3)]
        s = Subspace.from_vectors(gf7, 6, vecs)
        if s.dim < 3:
            pytest.skip("degenerate random sample")
        solver = CoordinateSolver(gf7, vecs)
        combo = [gf7.zero] * 6
        coeffs = [gf7.scalar(2), gf7.scalar(5), gf7.scalar(1)]
        for c, v in zip(coeffs, vecs):
            combo = [a + c * b for a, b in zip(combo, v)]
        assert solver.solve(combo) == tuple(coeffs)
        with pytest.raises(ValueError):
            CoordinateSolver(gf7, [vecs[0], vecs[0]])

    def test_spin_reaches_whole_space(self, gf3):
        shift = from_rows(gf3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        seed = [gf3.one, gf3.zero, gf3.zero]
        assert spin(gf3, 3, [seed], [shift]).dim == 3

    def test_spin_invariant_subspace(self, gf3):
        diag = from_rows(gf3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        seed = [gf3.one, gf3.zero, gf3.zero]
        assert spin(gf3, 3, [seed], [diag]).dim == 1
