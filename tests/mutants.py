"""The mutation gate's registry: code mutants of ``src`` that the tests must
catch.

Each entry names a file under ``src/okubo``, a text that occurs in it
exactly once, the replacement that makes the mutant, and the ids of the
tests that must fail on it.  ``tests/run_mutants.py`` applies each mutant to
a copy of the tree and runs its tests; ``tests/test_mutants.py`` checks that
every registered text still occurs exactly once, so that the registry
follows the code.  A fast path adds its mutants here.
"""

MUTANTS = [
    {
        "name": "the float32 kernel recombines the digits in reverse order",
        "file": "_kernels.py",
        "find": "    return Z.reshape(*Z.shape[:-1], Z.shape[-1] // k, k) @ t.powers\n",
        "replace": "    return Z.reshape(*Z.shape[:-1], Z.shape[-1] // k, k) @ t.powers[::-1]\n",
        "tests": [
            "tests/test_bilinear.py::test_batch_matmul_matches_reference",
            "tests/test_bilinear.py::test_bilinear_matches_object_path",
        ],
    },
    {
        "name": "batch_multiply reads the digits of the products in reverse order",
        "file": "_kernels.py",
        "find": "    D = np.take(t.product_digits, products, axis=0)\n",
        "replace": "    D = np.take(t.product_digits[:, ::-1], products, axis=0)\n",
        "tests": ["tests/test_kernels.py::test_batch_multiply_matches_object_batch"],
    },
    {
        "name": "the tables' bilinear map drops its last nonzero column",
        "file": "_kernels.py",
        "find": "    I, J = np.nonzero((T != 0).any(axis=-1))\n",
        "replace": "    I, J = (a[:-1] for a in np.nonzero((T != 0).any(axis=-1)))\n",
        "tests": ["tests/test_bilinear.py::test_bilinear_matches_object_path"],
    },
    {
        "name": "the object backends' bilinear map drops its last nonzero column",
        "file": "_zw.py",
        "find": "    I, J = np.nonzero(ar.nonzero(T).any(axis=2))\n",
        "replace": "    I, J = (a[:-1] for a in np.nonzero(ar.nonzero(T).any(axis=2)))\n",
        "tests": ["tests/test_bilinear.py::test_bilinear_matches_object_path"],
    },
    {
        "name": "a product with a rational right factor gets a wrong w-part",
        "file": "_zw.py",
        "find": "            return ZwArray(xa * ya, xb * ya, den)\n",
        "replace": "            return ZwArray(xa * ya, xa * ya, den)\n",
        "tests": [
            "tests/test_zw.py",
            "tests/test_bilinear.py::test_bilinear_matches_object_path",
        ],
    },
    {
        "name": "the int64 bound is ignored and every operation runs in int64",
        "file": "_zw.py",
        "find": "    if bound < LIMIT and all(p.dtype != object for p in parts):\n",
        "replace": "    if all(p.dtype != object for p in parts):\n",
        "tests": ["tests/test_zw.py"],
    },
    {
        "name": "the last row block of the bilinear map is dropped",
        "file": "_zw.py",
        "find": "        blocks = range(0, max(len(X), 1), BLOCK)\n",
        "replace": "        blocks = range(0, max(len(X) - BLOCK, 1), BLOCK)\n",
        "tests": [
            "tests/test_zw.py",
            "tests/test_bilinear.py::test_bilinear_matches_object_path",
        ],
    },
    {
        "name": "the elimination steps of rref skip the promotion to Python ints",
        "file": "_zw.py",
        "find": "                a, b = _machine(6 * _bound(a[r], b[r]) * _bound(a[rows], b[rows]), a, b)\n",
        "replace": "",
        "tests": ["tests/test_zw.py"],
    },
    {
        "name": "the bulk draws keep the low bits of each word",
        "file": "_encoded_lie.py",
        "find": "        values = (words >> shift).astype(np.int64)\n",
        "replace": "        values = (words % (1 << (32 - shift))).astype(np.int64)\n",
        "tests": ["tests/test_bilinear.py::test_random_draws_the_elements_of_random_element"],
    },
    {
        "name": "charpoly drops the last term of each Berkowitz column",
        "file": "_encoded_lie.py",
        "find": "        for _ in range(r - 1):\n            col.append(neg(dot(row, v)))\n",
        "replace": "        for _ in range(r - 2):\n            col.append(neg(dot(row, v)))\n",
        "tests": ["tests/test_liealg.py::TestEncodedLie::test_charpoly_is_matrix_charpoly"],
    },
    {
        "name": "the MeatAxe skips the transposed spin of Norton's criterion",
        "file": "_encoded_lie.py",
        "find": "                if spin_dim(ar, ker_t[0], gens_t, words_t) != n:\n",
        "replace": "                if False:\n",
        "tests": ["tests/test_liealg.py::TestEncodedLie::test_perfect_centerless_nonsimple_rejected"],
    },
    {
        "name": "a random element of Q(w) is drawn numerator first",
        "file": "_zw.py",
        "find": "            dab = [(rand(1, 8), rand(-9, 10), rand(-9, 10)) for _ in range(n)]\n",
        "replace": "            dab = [(lambda a, d, b: (d, a, b))(rand(-9, 10), rand(1, 8), rand(-9, 10))"
                   " for _ in range(n)]\n",
        "tests": ["tests/test_bilinear.py::test_random_draws_the_elements_of_random_element"],
    },
    {
        "name": "the norm is read from the full polar matrix, not its upper triangle",
        "file": "algebra.py",
        "find": "form.values[i] if i == j else form.polar[i, j] if i < j else zero]",
        "replace": "form.values[i] if i == j else form.polar[i, j]]",
        "tests": ["tests/test_idempotents.py::TestTwistOnArrays"],
    },
    {
        "name": "the twist's norm check reads the rows of the untwisted tensor",
        "file": "idempotents.py",
        "find": "batch.norm(T.reshape(dim * dim, dim))",
        "replace": "batch.norm(C.reshape(dim * dim, dim))",
        "tests": ["tests/test_idempotents.py::TestTwistOnArrays"],
    },
    {
        "name": "the census join key drops one cross-term factor",
        "file": "_kernels.py",
        "find": "        for key in ([alpha] + [f for f, _ in terms[0]], [beta] + [g for _, g in terms[0]]))\n",
        "replace": "        for key in ([alpha] + [f for f, _ in terms[0][1:]], [beta] + [g for _, g in terms[0]]))\n",
        "tests": [
            "tests/test_kernels.py::test_census_implementations_agree",
            "tests/test_kernels.py::test_census_kernels_agree_on_okubo_mutants",
        ],
    },
    {
        "name": "the census join keys read v_0 from the lo half",
        "file": "_kernels.py",
        "find": "    alpha = add.take(part_hi[0] + neg.take(hd[0])) if h else part_hi[0]\n"
                "    beta = part_lo[0] if h else add.take(part_lo[0] * qi + neg.take(ld[0]))\n",
        "replace": "    alpha = part_hi[0]\n"
                   "    beta = add.take(part_lo[0] * qi + neg.take(ld[0]))\n",
        "tests": [
            "tests/test_kernels.py::test_census_implementations_agree",
            "tests/test_kernels.py::test_census_kernels_agree_on_okubo_mutants",
        ],
    },
    {
        "name": "the reference census scan skips its last coordinate",
        "file": "_kernels.py",
        "find": "        for k in range(dim):\n",
        "replace": "        for k in range(dim - 1):\n",
        "tests": ["tests/test_kernels.py::test_census_implementations_agree"],
    },
    {
        "name": "Cantor-Zassenhaus raises to (q^d + 1)/2 for odd q",
        "file": "polys.py",
        "find": "        return _poly_sub(_poly_powmod(a, (q**d - 1) // 2, h, F), [F.one], F)\n",
        "replace": "        return _poly_sub(_poly_powmod(a, (q**d + 1) // 2, h, F), [F.one], F)\n",
        "tests": ["tests/test_polys.py::TestFactorization::test_split_map_vanishes_at_squares_or_trace_zero"],
    },
    {
        "name": "the characteristic-2 trace of Cantor-Zassenhaus stops one term short",
        "file": "polys.py",
        "find": "    for _ in range((q.bit_length() - 1) * d - 1):\n",
        "replace": "    for _ in range((q.bit_length() - 1) * d - 2):\n",
        "tests": ["tests/test_polys.py::TestFactorization::test_split_map_vanishes_at_squares_or_trace_zero"],
    },
    {
        "name": "the sl3 coordinates read one pivot column off",
        "file": "models.py",
        "find": "        coords = ar.matmul(V[:, list(pivots)], red[:, -len(pivots):])\n",
        "replace": "        coords = ar.matmul(V[:, list(pivots[:-1]) + [pivots[-1] + 1]], red[:, -len(pivots):])\n",
        "tests": [
            "tests/test_models.py::test_array_model_matches_matrix_path",
            "tests/test_models.py::TestSl3Model::test_coords_round_trip",
        ],
    },
    {
        "name": "the modulus check accepts a reducible modulus",
        "file": "fields.py",
        "find": "        if polys.factor(monic, polys.Coefficients(prime)) != [monic]:\n",
        "replace": "        if not polys.factor(monic, polys.Coefficients(prime)):\n",
        "tests": [
            "tests/test_fields.py::TestConstruction::test_reducible_modulus",
            "tests/test_polys.py::TestIrreducibility",
        ],
    },
]
