import random

import numpy as np
import pytest
import sympy

from lrcodes.errors import (
    BoundTooLarge,
    CompositeCharacteristic,
    DivisionByZero,
    ReduciblePolynomial,
    UnsupportedExtension,
)
from lrcodes.gf import (
    IRREDUCIBLE_POLY,
    FieldSpec,
    field_at_least,
    field_kernel,
    field_make,
    is_prime,
)


def _poly_of_mask(mask):
    x = sympy.Symbol("x")
    expr = sum(((mask >> i) & 1) * x ** i for i in range(mask.bit_length()))
    return sympy.Poly(expr, x, modulus=2)


# ---------------------------------------------------------------------
# primality and the frozen modulus table, against sympy
# ---------------------------------------------------------------------

def test_is_prime_matches_sympy_small():
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_sympy_large_samples():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(10 ** 6, 10 ** 12)
        assert is_prime(n) == sympy.isprime(n)
    assert is_prime(2324809)
    assert not is_prime(2324808)


def test_modulus_table_entries_are_irreducible():
    for e, mask in IRREDUCIBLE_POLY.items():
        assert mask.bit_length() - 1 == e
        assert _poly_of_mask(mask).is_irreducible, f"degree {e}"


def test_modulus_table_entries_are_smallest():
    # each stored mask is the least irreducible monic polynomial of its
    # degree, so the table is a canonical choice, not just a valid one
    for e in (2, 3, 4, 5, 8):
        mask = IRREDUCIBLE_POLY[e]
        for cand in range(1 << e, mask):
            assert not _poly_of_mask(cand).is_irreducible


# ---------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------

def _axiom_fields():
    return [field_make(2), field_make(3), field_make(7), field_make(13),
            field_make(2, 2), field_make(2, 3), field_make(2, 4)]


def test_field_axioms_exhaustive():
    for f in _axiom_fields():
        elems = list(range(f.q))
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.neg(b))
        if f.q <= 16:
            for a in elems:
                for b in elems:
                    for c in elems:
                        assert f.mul(a, f.add(b, c)) == f.add(
                            f.mul(a, b), f.mul(a, c))
                        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_inverses_exhaustive():
    for f in (field_make(251), field_make(2, 8), field_make(2, 4),
              field_make(97)):
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, 7), a) == f.canon(7)
        with pytest.raises(DivisionByZero):
            f.inv(0)
        with pytest.raises(DivisionByZero):
            f.div(3, 0)


def test_pow_matches_repeated_mul():
    rng = random.Random(5)
    for f in (field_make(31), field_make(2, 5)):
        for _ in range(100):
            a = rng.randrange(1, f.q)
            e = rng.randrange(0, 20)
            acc = 1
            for _ in range(e):
                acc = f.mul(acc, a)
            assert f.pow(a, e) == acc
            if e:
                assert f.pow(a, -e) == f.inv(acc)
        assert f.pow(3, 0) == 1


def test_gf4_table_frozen():
    # x^2 + x + 1: representatives 0,1,2,3 with 2 = x, 3 = x+1
    f = field_make(2, 2)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3
    assert f.inv(3) == 2


def test_gf256_generator_order():
    f = field_make(2, 8)
    # x generates the multiplicative group for the AES polynomial's field?
    # not necessarily; just check the order of x divides 255 and exceeds 1
    seen = set()
    a = 2
    acc = 1
    for _ in range(255):
        acc = f.mul(acc, a)
        seen.add(acc)
    assert acc == 1
    assert 255 % len(seen) == 0


def test_canon_reduces_representatives():
    f = field_make(2, 3)
    assert f.canon(5) == 5
    assert f.canon(0b1000) == 0b011  # x^3 = x + 1 modulo x^3 + x + 1
    g = field_make(7)
    assert g.canon(-1) == 6
    assert g.canon(700) == 0


# ---------------------------------------------------------------------
# construction errors and field_at_least
# ---------------------------------------------------------------------

def test_field_make_rejects_bad_input():
    with pytest.raises(CompositeCharacteristic):
        field_make(4)
    with pytest.raises(CompositeCharacteristic):
        field_make(1)
    with pytest.raises(UnsupportedExtension):
        field_make(3, 2)
    with pytest.raises(UnsupportedExtension):
        field_make(2, 0)
    with pytest.raises(UnsupportedExtension):
        field_make(2, 17)
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 2, 0b101)  # x^2 + 1 = (x+1)^2
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 3, 0b111)  # degree 2, not 3


def test_field_make_accepts_explicit_modulus():
    f = field_make(2, 3, [1, 1, 0, 1])  # x^3 + x + 1 as coefficients
    assert f.poly == 0b1011
    assert f == field_make(2, 3)
    g = field_make(2, 3, 0b1101)  # x^3 + x^2 + 1, the other choice
    assert g != f
    for a in range(1, 8):
        assert g.mul(a, g.inv(a)) == 1


def test_field_at_least():
    assert field_at_least(495).q == 499
    assert field_at_least(17).q == 17
    assert field_at_least(1).q == 2
    assert field_at_least(5, prefer="binary").q == 8
    assert field_at_least(256, prefer="binary").q == 256
    with pytest.raises(BoundTooLarge):
        field_at_least(2 ** 20, prefer="binary", ceiling=2 ** 10)
    with pytest.raises(BoundTooLarge):
        field_at_least(10 ** 7, prefer="binary")
    with pytest.raises(ValueError):
        field_at_least(5, prefer="ternary")


def test_field_at_least_matches_sympy_nextprime():
    rng = random.Random(3)
    for _ in range(50):
        b = rng.randrange(2, 10 ** 6)
        assert field_at_least(b).q == (b if sympy.isprime(b)
                                       else sympy.nextprime(b))


def test_fieldspec_json_round_trip():
    for f in (field_make(499), field_make(2, 4), field_make(2, 3, 0b1101)):
        assert FieldSpec.from_json(f.to_json()) == f


# ---------------------------------------------------------------------
# numpy kernel, against the scalar arithmetic
# ---------------------------------------------------------------------

def _order(f, a):
    x, n = a, 1
    while x != 1:
        x, n = f.mul(x, a), n + 1
    return n


def test_kernel_matches_scalar_ops():
    rng = random.Random(17)
    fields = [field_make(p) for p in (2, 3, 499, 2324809, 1000000007,
                                      4294967311, 2 ** 61 - 1)]
    fields += [field_make(2, e) for e in range(2, 17)]
    fields.append(field_make(2, 3, 0b1101))
    for f in fields:
        K = field_kernel(f)
        assert field_kernel(f) is K
        a = [rng.randrange(f.q) for _ in range(301)]
        b = [rng.randrange(f.q) for _ in range(301)]
        nz = [rng.randrange(1, f.q) for _ in range(301)] + [1, f.q - 1]
        A, B = K.array(a), K.array(b)
        assert K.mul(A, B).tolist() == [f.mul(x, y) for x, y in zip(a, b)]
        assert K.neg(A).tolist() == [f.neg(x) for x in a]
        assert K.inv(K.array(nz)).tolist() == [f.inv(x) for x in nz]
        acc = K.array(a)
        K.fms(acc, A, B)
        assert acc.tolist() == [f.sub(x, f.mul(x, y)) for x, y in zip(a, b)]
        K.fma(acc, A, B)
        assert acc.tolist() == a
        M = K.array([a[:3], b[:3]] * 4)
        assert K.matvec(M, nz[:3]).tolist() == [
            f.add(f.add(f.mul(r[0], nz[0]), f.mul(r[1], nz[1])), f.mul(r[2], nz[2]))
            for r in M.tolist()]
        acc = K.zeros((5, 3))
        K.fma_outer(acc, K.array(a[:5]), K.array(b[:3]))
        assert acc.tolist() == [[f.mul(x, y) for y in b[:3]] for x in a[:5]]


def test_kernel_binary_tables_exhaustive_when_x_is_not_primitive():
    # x has order below q-1 modulo the built-in polynomials of these
    # degrees, so the log tables must be taken over another generator
    for e in (8, 9, 12, 14, 16):
        f = field_make(2, e)
        assert _order(f, 2) < f.q - 1
    for e in (8, 9):
        f = field_make(2, e)
        K = field_kernel(f)
        x = np.repeat(np.arange(f.q), f.q)
        y = np.tile(np.arange(f.q), f.q)
        want = [f.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert K.mul(x, y).tolist() == want
        nz = np.arange(1, f.q)
        assert K.inv(nz).tolist() == [f.inv(a) for a in range(1, f.q)]


def test_kernel_prime_dtype_follows_the_field():
    # int64 exactly while p(p-1) < 2^63: these are the primes either side
    assert field_kernel(field_make(3037000493)).dtype == np.int64
    assert field_kernel(field_make(3037000507)).dtype == object
    K = field_kernel(field_make(499))
    assert K.inv(K.zeros(0)).tolist() == []
