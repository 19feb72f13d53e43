"""The derivation analysis of ``liealg`` on table-encoded integer arrays.

Over fields with lookup tables (``_kernels.supports_field``) elements are
their enumeration indices, 0 is zero and 1 is one.  A linear map is an
encoded square array, a family of maps an (n, d, d) stack, a subspace its
canonical RREF basis, and every product is one call of
``_kernels.batch_matmul``.  Each function mirrors a ``Scalar`` function of
``liealg``, which is the reference the tests compare it with:
``leibniz_system``, ``inner_span`` (with the Leibniz check of each ad*_u),
``lie_close``, ``EncodedLie`` (a ``LieAlgebra``: antisymmetry and Jacobi
are checked on construction), ``derived``, ``killing_rank``,
``center_dim``, ``grading`` (``_grading_on``) and ``is_simple``
(``is_simple_finite``), whose MeatAxe draws the same random stream in the
same order, so its verdicts do not depend on the representation.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import _kernels, polys
from .errors import Inconclusive, NotClosed


def encoded_tensor(algebra):
    """The structure tensor as an encoded (dim, dim, dim) array."""
    dim = algebra.dim
    out = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, j, k, c in algebra.entries:
        out[i, j, k] = algebra.field.element_index(c)
    return out


def leibniz_system(algebra):
    """``liealg.leibniz_system`` as an encoded array, built from the tensor
    entries.

    Each of the three terms puts every entry c_ijk into dim distinct cells,
    and no two entries share a cell within one term, so each term is one
    vectorized table addition.
    """
    dim = algebra.dim
    t = _kernels.tables_for(algebra.field)
    C = encoded_tensor(algebra)
    i, j, k = (a[:, None] for a in np.nonzero(C))
    c = C[i, j, k]
    m = np.arange(dim)[None, :]
    system = np.zeros((dim**3, dim * dim), dtype=np.int64)
    terms = (
        ((i * dim + j) * dim + m, m * dim + k, c),  # D(b_i * b_j): D[m][k] c_ijk
        ((m * dim + j) * dim + k, i * dim + m, t.neg[c]),  # D(b_m) * b_j: D[i][m]
        ((i * dim + m) * dim + k, j * dim + m, t.neg[c]),  # b_i * D(b_m): D[j][m]
    )
    for rows, cols, value in terms:
        system[rows, cols] = t.add[system[rows, cols], value]
    return system


def leibniz_holds(field, C, D):
    """One bool per encoded map D[n] (a (N, dim, dim) stack): is it a
    derivation of the algebra with encoded tensor C?  Both sides are read
    from the tensor as in ``liealg.leibniz_holds``: D(b_i*b_j) against
    D(b_i)*b_j + b_i*D(b_j)."""
    t = _kernels.tables_for(field)
    dim = C.shape[0]
    N = D.shape[0]
    Dt = D.transpose(0, 2, 1)
    lhs = _kernels.batch_matmul(field, C.reshape(dim * dim, dim), Dt)
    left = _kernels.batch_matmul(field, Dt, C.reshape(dim, dim * dim))
    right = _kernels.batch_matmul(field, Dt[:, None], C[None])
    ok = lhs.reshape(N, dim, dim, dim) == t.add[left.reshape(N, dim, dim, dim), right]
    return ok.reshape(N, -1).all(axis=1)


def ad_stars(field, C):
    """The stack of ad*_{b_i} = L_{b_i} - R_{b_i}: L[i][k][j] = c_ijk and
    R[i][k][m] = c_mik."""
    t = _kernels.tables_for(field)
    return t.add[C.transpose(0, 2, 1), t.neg[C.transpose(1, 2, 0)]]


def inner_span(algebra, C):
    """``liealg.inner_derivation_span`` as an encoded RREF basis; each
    generator is verified against the Leibniz identity."""
    field, dim = algebra.field, algebra.dim
    ads = ad_stars(field, C)
    ok = leibniz_holds(field, C, ads)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise AssertionError(f"ad*_{algebra.labels[bad]} is not a derivation")
    return _kernels.span_encoded(field, ads.reshape(dim, dim * dim))


class EncodedLie:
    """A Lie algebra over a field with lookup tables: the encoded bracket
    tensor (n, n, n), [x_a, x_b] = sum_c tensor[a, b, c] x_c, and the (n, d, d)
    stack of the maps x_a, when it is an algebra of maps.

    Construction verifies [x,x] = 0 and antisymmetry on the basis and the
    Jacobi identity on all basis triples, as ``LieAlgebra`` does.
    """

    def __init__(self, field, tensor, maps=None):
        self.field = field
        self.tensor = tensor
        self.maps = maps
        self._validate()

    @property
    def dim(self):
        return self.tensor.shape[0]

    @property
    def ads(self):
        """The stack of ad x_a, whose column b is tensor[a, b]."""
        return self.tensor.transpose(0, 2, 1)

    def _validate(self):
        t = _kernels.tables_for(self.field)
        n, T = self.dim, self.tensor
        if T[np.arange(n), np.arange(n)].any():
            raise ValueError("bracket [x,x] != 0 on basis")
        if (T != t.neg[T.transpose(1, 0, 2)]).any():
            raise ValueError("bracket tensor is not antisymmetric")
        # U[i, j, k] = [[x_i, x_j], x_k]; Jacobi is U[i,j,k] + U[j,k,i] + U[k,i,j] = 0
        U = _kernels.batch_matmul(self.field, T.reshape(n * n, n), T.reshape(n, n * n))
        U = U.reshape(n, n, n, n)
        cyclic = t.add[t.add[U, U.transpose(2, 0, 1, 3)], U.transpose(1, 2, 0, 3)]
        if cyclic.any():
            raise ValueError("Jacobi identity fails on basis triple")


def commutators(field, maps):
    """All n^2 commutators [M_a, M_b] of an encoded (n, d, d) stack, flattened
    to (n^2, d^2) in row-major (a, b) order."""
    t = _kernels.tables_for(field)
    n, d, _ = maps.shape
    P = _kernels.batch_matmul(field, maps[:, None], maps[None, :])
    return t.add[P, t.neg[P.transpose(1, 0, 2, 3)]].reshape(n * n, d * d)


def lie_close(field, basis):
    """``liealg.lie_close`` on an encoded RREF basis (n, d^2) of flattened maps.

    Raises NotClosed when a commutator escapes the span.
    """
    n = basis.shape[0]
    side = math.isqrt(basis.shape[1])
    maps = basis.reshape(n, side, side)
    coords, inside = _kernels.coordinates_encoded(field, basis, commutators(field, maps))
    if not inside.all():
        raise NotClosed("subspace of maps is not closed under commutator")
    return EncodedLie(field, coords.reshape(n, n, n), maps=maps)


def derived(lie):
    """``liealg.derived_subalgebra`` of an ``EncodedLie``."""
    field, n, T = lie.field, lie.dim, lie.tensor
    span = _kernels.span_encoded(field, T[np.triu_indices(n, 1)].reshape(-1, n))
    m = span.shape[0]
    # partial[a, j] = [s_a, x_j]; brackets[a, b] = [s_a, s_b]
    partial = _kernels.batch_matmul(field, span, T.reshape(n, n * n)).reshape(m, n, n)
    brackets = _kernels.batch_matmul(field, span, partial).reshape(m * m, n)
    coords, inside = _kernels.coordinates_encoded(field, span, brackets)
    if not inside.all():
        raise NotClosed("derived span not closed; bracket tensor inconsistent")
    maps = None
    if lie.maps is not None:
        _, d, _ = lie.maps.shape
        maps = _kernels.batch_matmul(field, span, lie.maps.reshape(n, d * d)).reshape(m, d, d)
    return EncodedLie(field, coords.reshape(m, m, m), maps=maps)


def killing_rank(lie):
    """Rank of K[i][j] = trace(ad x_i o ad x_j) = sum_km ad_i[k][m] ad_j[m][k]."""
    n, ads = lie.dim, lie.ads
    K = _kernels.batch_matmul(
        lie.field, ads.reshape(n, n * n), ads.transpose(0, 2, 1).reshape(n, n * n).T
    )
    return len(_kernels.rref_encoded(lie.field, K)[1])


def center_dim(lie):
    """dim of the center: the nullspace of the rows (j, k) over columns i of
    tensor[i, j, k], as in ``liealg.center_of``."""
    n = lie.dim
    system = lie.tensor.transpose(1, 2, 0).reshape(n * n, n)
    return n - len(_kernels.rref_encoded(lie.field, system)[1])


def grading(algebra, der):
    """The fields of the ``liealg.DerGradingReport`` that ``_grading_on``
    makes, given the encoded RREF basis ``der`` of the derivation space.
    The component of degree g is {c der : (c der) vanishes off the
    coordinates (r, j) with deg b_r = deg b_j + g}, so its coefficients c
    form the nullspace of the transposed off-degree columns."""
    field, dim = algebra.field, algebra.dim
    degree_to_index = {d: i for i, d in enumerate(algebra.grading)}

    def off_degree(g):
        allowed = np.zeros((dim, dim), dtype=bool)
        for j, h in enumerate(algebra.grading):
            r = degree_to_index.get(((h[0] + g[0]) % 3, (h[1] + g[1]) % 3))
            if r is not None:
                allowed[r, j] = True
        return ~allowed.reshape(-1)

    dims, parts = {}, []
    for g in ((gi, gj) for gi in range(3) for gj in range(3)):
        coeffs = _kernels.nullspace_encoded(field, der[:, off_degree(g)].T)
        if len(coeffs):
            dims[g] = len(coeffs)
            parts.append(_kernels.batch_matmul(field, coeffs, der))
    stacked = np.concatenate(parts) if parts else der[:0]
    fill = np.array_equal(_kernels.span_encoded(field, stacked), der)
    ads = ad_stars(field, encoded_tensor(algebra))
    cubes = _kernels.batch_matmul(field, _kernels.batch_matmul(field, ads, ads), ads)
    cubes = cubes.reshape(dim, dim * dim)
    _, in_der = _kernels.coordinates_encoded(field, der, cubes)
    in_zero_part = ~cubes[:, off_degree((0, 0))].any(axis=1)
    return dict(
        dims=dims,
        total=sum(dims.values()),
        der_dim=len(der),
        components_fill_der=fill,
        ad_cube_in_degree_zero=bool((in_der & in_zero_part).all()),
    )


def enveloping_element(field, gens, rng):
    """``liealg._random_enveloping_element`` on an encoded stack, drawing the
    same values: a finite field's ``random_scalar`` is one randrange(q) whose
    value is the encoded element, 0 is zero and 1 is one."""
    t = _kernels.tables_for(field)
    acc = np.zeros(gens.shape[1:], dtype=np.int64)
    for _ in range(rng.randrange(2, 5)):
        term = gens[rng.randrange(len(gens))]
        for _ in range(rng.randrange(0, 3)):
            term = _kernels.batch_matmul(field, term, gens[rng.randrange(len(gens))])
        coef = rng.randrange(t.q) or 1
        acc = t.add[acc, t.mul[coef, term]]
    return acc


def charpoly(field, A):
    """det(xI - A) of an encoded square matrix, constant term first, by the
    same division-free Berkowitz recursion as ``Matrix.charpoly``, on Python
    ints through the field's tables."""
    add, mul, neg = _kernels.tables_for(field).lists
    a = A.tolist()
    n = len(a)

    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = add[acc][mul[x][y]]
        return acc

    coeffs = [1, neg[a[0][0]]]  # highest degree first
    for r in range(2, n + 1):
        row, block = a[r - 1][: r - 1], [line[: r - 1] for line in a[: r - 1]]
        col = [1, neg[a[r - 1][r - 1]]]
        v = [a[i][r - 1] for i in range(r - 1)]
        for _ in range(r - 1):
            col.append(neg[dot(row, v)])
            v = [dot(line, v) for line in block]
        # multiply the (r+1) x r Toeplitz matrix built from col into coeffs
        new = []
        for i in range(r + 1):
            js = range(max(0, i - len(col) + 1), min(r, i + 1))
            new.append(dot([col[i - j] for j in js], [coeffs[j] for j in js]))
        coeffs = new
    return coeffs[::-1]


def spin_dim(field, vector, gens, words):
    """dim of the smallest subspace holding ``vector`` and closed under the
    encoded maps ``gens``.  The first span takes the images under ``words``
    (the gens and their products of two) at once; the span then grows by the
    images of its basis until the dimension stops growing."""
    n = gens.shape[1]
    first = _kernels.batch_matmul(field, vector[None, :], words.transpose(0, 2, 1))
    span = _kernels.span_encoded(field, np.concatenate([vector[None, :], first.reshape(-1, n)]))
    images_of = gens.transpose(0, 2, 1)  # row v times G^T is (G v)^T
    while len(span) < n:
        images = _kernels.batch_matmul(field, span, images_of).reshape(-1, n)
        grown = _kernels.span_encoded(field, np.concatenate([span, images]))
        if len(grown) == len(span):
            break
        span = grown
    return len(span)


def is_simple(lie, seed, max_trials):
    """``liealg.is_simple_finite`` after its input checks, on an
    ``EncodedLie``.

    The same trials as on Scalar matrices: the same enveloping elements, the
    same characteristic polynomials and factors, kernels with the same RREF
    bases, and the same spins.  f(theta^T) is f(theta)^T, and the powers of
    theta serve every factor of one trial.
    """
    field, n = lie.field, lie.dim
    t = _kernels.tables_for(field)
    if derived(lie).dim != n:
        return False
    if center_dim(lie) != 0:
        return False
    gens, gens_t = lie.ads, lie.tensor
    products = _kernels.batch_matmul(field, gens[:, None], gens[None]).reshape(-1, n, n)
    words = np.concatenate([gens, products])
    words_t = words.transpose(0, 2, 1)  # the transposed gens and their products of two
    els = t.elements
    rng = random.Random(seed)
    for _ in range(max_trials):
        theta = enveloping_element(field, gens, rng)
        char = [els[c] for c in charpoly(field, theta)]
        # a repeated factor repeats the same kernel and spins, so it is
        # tested once
        factors = polys.factor_into_irreducibles(char, field)
        factors = [f for i, f in enumerate(factors) if i == 0 or f != factors[i - 1]]
        powers = [np.eye(n, dtype=np.int64)]
        while len(powers) <= max(map(polys.degree, factors), default=0):
            powers.append(_kernels.batch_matmul(field, powers[-1], theta))
        for f in factors:
            f_of_theta = np.zeros((n, n), dtype=np.int64)
            for c, power in zip(f, powers):
                f_of_theta = t.add[f_of_theta, t.mul[field.element_index(c), power]]
            ker = _kernels.nullspace_encoded(field, f_of_theta)
            if len(ker) == 0:
                continue
            if spin_dim(field, ker[0], gens, words) != n:
                return False
            if len(ker) == polys.degree(f):
                ker_t = _kernels.nullspace_encoded(field, f_of_theta.T)
                if spin_dim(field, ker_t[0], gens_t, words_t) != n:
                    return False
                return True
    raise Inconclusive(
        f"no irreducible factor of minimal nullity in {max_trials} trials"
    )
