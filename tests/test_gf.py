import json
import random
from itertools import product

import numpy as np
import pytest
import sympy

from lrcodes.codefile import CodeFile
from lrcodes.construct import LrcCode
from lrcodes.covers import CoverSet
from lrcodes.errors import (
    BoundTooLarge,
    CompositeCharacteristic,
    DivisionByZero,
    ReduciblePolynomial,
    UnsupportedExtension,
)
from lrcodes.gf import (
    IRREDUCIBLE_POLY,
    field_at_least,
    field_kernel,
    field_make,
    is_prime,
)
from lrcodes.linalg import Matrix
from lrcodes.params import CodeParams


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
    # psi_12, the least strong pseudoprime to every prime base up to 37
    assert not is_prime(399165290221 * 798330580441)


def test_is_prime_refuses_past_its_exact_range():
    # psi_13 = 1287836182261 * 2575672364521 fools every witness base, so
    # from psi_13 on is_prime refuses rather than answer; the largest
    # prime below psi_13 is still proved
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    below = 3317044064679887385961813
    assert sympy.isprime(below) and sympy.nextprime(below) > psi13
    assert is_prime(below)
    assert not is_prime(below + 2)
    for n in (psi13, psi13 + 2, 2 ** 89 - 1):
        with pytest.raises(BoundTooLarge, match="too large to prove prime"):
            is_prime(n)


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
            assert f.add(a, f.sub(0, a)) == 0
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.sub(0, b))
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
            assert f.mul(f.mul(a, 7), f.inv(a)) == f.canon(7)
        with pytest.raises(DivisionByZero):
            f.inv(0)


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
    with pytest.raises(CompositeCharacteristic):
        field_make(399165290221 * 798330580441)  # psi_12
    # psi_13, which fools base 41 too, and a prime beyond it: from there
    # on the witness set cannot prove a characteristic prime
    for p in (1287836182261 * 2575672364521, 2 ** 89 - 1):
        with pytest.raises(BoundTooLarge):
            field_make(p)
    with pytest.raises(UnsupportedExtension):
        field_make(3, 2)
    with pytest.raises(UnsupportedExtension):
        field_make(2, 0)
    with pytest.raises(UnsupportedExtension):
        field_make(2, 17)
    with pytest.raises(UnsupportedExtension):
        # irreducible, but past the degrees the kernel tables support
        field_make(2, 17, 0b100000000000001001)
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 2, 0b101)  # x^2 + 1 = (x+1)^2
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 3, 0b111)  # degree 2, not 3
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 4, 0b10010)  # x^4 + x = x (x^3 + 1): even, so x divides it


def test_field_make_accepts_exactly_the_irreducible_moduli():
    # Gauss's count of the monic irreducible polynomials of degree d over
    # GF(2): (1/d) sum over e | d of mu(d/e) 2^e
    for d, count in ((2, 1), (3, 2), (4, 3), (5, 6), (6, 9), (7, 18), (8, 30)):
        accepted = 0
        for poly in range(1 << d, 2 << d):
            try:
                field_make(2, d, poly)
            except ReduciblePolynomial:
                continue
            accepted += 1
        assert accepted == count, d


def test_field_make_rejects_a_modulus_for_a_prime_field():
    # GF(p) has no modulus: one given is refused, not dropped; none, or 0
    # as a code file stores it, builds GF(p)
    for p, poly in ((7, 5), (17, 19), (2, 3), (17, 1)):
        with pytest.raises(ReduciblePolynomial,
                           match=rf"^GF\({p}\) has no modulus, got poly {poly}$"):
            field_make(p, 1, poly)
    assert field_make(7, 1, None) == field_make(7, 1, 0) == field_make(7)


def test_field_make_accepts_explicit_modulus():
    f = field_make(2, 3, 0b1011)  # x^3 + x + 1
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
    with pytest.raises(BoundTooLarge, match=r"bound 2147483649 passes the 2\^31 cap"):
        field_at_least(2 ** 31 + 1)
    with pytest.raises(BoundTooLarge, match=r"no prime in \[2147483648, 2147483648\]"):
        field_at_least(2 ** 31)
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
    # a field is stored twice in a code file, for the code and for its
    # generator; a chosen modulus comes back too
    for f in (field_make(499), field_make(2, 4), field_make(2, 3, 0b1101)):
        code = LrcCode(field=f, generator=Matrix(f, [[1, 0, 1], [0, 1, 1]]),
                       structure=CoverSet(3, [[1, 2, 3]]),
                       params=CodeParams(3, 2, 2, 2), claimed_d=2)
        stored = CodeFile(code=code, seed=None, tool_version="", created_at="")
        back = CodeFile.from_json(json.loads(json.dumps(stored.to_json()))).code
        assert back.field == back.generator.field == f


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
        assert K.inv(K.array(nz)).tolist() == [f.inv(x) for x in nz]
        acc = K.array(a)
        K.fms(acc, A, B)
        assert acc.tolist() == [f.sub(x, f.mul(x, y)) for x, y in zip(a, b)]
        K.fma(acc, A, B)
        assert acc.tolist() == a
        # cross(u, s, v, t) = u*s - v*t, with products of the largest residues
        top = [f.q - 1 - rng.randrange(2) for _ in range(301)]
        assert K.cross(A, K.array(top), K.array(top), B).tolist() == [
            f.sub(f.mul(x, t), f.mul(t, y)) for x, y, t in zip(a, b, top)]
        M = K.array([a[:3], b[:3]] * 4)
        assert K.matmul(M, K.array(nz[:3]).reshape(3, 1)).tolist() == [
            [f.add(f.add(f.mul(r[0], nz[0]), f.mul(r[1], nz[1])), f.mul(r[2], nz[2]))]
            for r in M.tolist()]
        assert K.matmul(K.array(a[:5]).reshape(5, 1), K.array([b[:3]])).tolist() == [
            [f.mul(x, y) for y in b[:3]] for x in a[:5]]
        # matmul reduces once while m products fit in int64 and loops
        # otherwise: 10 products of GF(1000000007) residues near q do not
        for m in (3, 10):
            L = [[(f.q - 1 - rng.randrange(3)) % f.q for _ in range(m)] for _ in range(4)]
            R = [[(f.q - 1 - rng.randrange(3)) % f.q for _ in range(5)] for _ in range(m)]
            want = []
            for row in L:
                want.append([])
                for j in range(5):
                    s = 0
                    for t in range(m):
                        s = f.add(s, f.mul(row[t], R[t][j]))
                    want[-1].append(s)
            assert K.matmul(K.array(L), K.array(R)).tolist() == want


def test_kernel_lines_one_per_line_in_lexicographic_order():
    # the first vector of each line of GF(q)^b, where the first nonzero
    # entry is 1, in product order; every batch size gives the same list
    for f in (field_make(2), field_make(3), field_make(13), field_make(2, 2),
              field_make(2, 3)):
        K = field_kernel(f)
        for b in range(4):
            want = [v for v in product(range(f.q), repeat=b)
                    if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
            assert len(want) == (f.q ** b - 1) // (f.q - 1)
            for rows in (1, 2, 7, 1000):
                batches = list(K.lines(b, rows))
                assert all(0 < len(B) <= rows and B.shape[1:] == (b,)
                           and B.dtype == K.dtype for B in batches)
                got = [tuple(v) for B in batches for v in B.tolist()]
                assert got == want, (f, b, rows)
    # past int64 the digits come from Python ints: GF(2^64+13)^3 has p
    # lines that lead with one zero, more than an int64 counts
    K = field_kernel(field_make(2 ** 64 + 13))
    it = K.lines(3, 3)
    assert next(it).tolist() == [[0, 0, 1]]
    assert next(it).tolist() == [[0, 1, x] for x in range(3)]


@pytest.mark.parametrize("p", [499, 2324809, 4294967311, 2 ** 61 - 1])
def test_prime_kernel_inverse_tree_on_every_small_size(p):
    # the product tree carries an odd level's last element up unpaired:
    # every size from 0 to 33 gives each element's inverse by the scalar
    # power, also on the object-dtype kernels of the two largest primes
    rng = random.Random(p)
    K = field_kernel(field_make(p))
    assert (K.dtype == object) == (p > 3037000493)
    for size in range(34):
        nz = [rng.randrange(1, p) for _ in range(size)]
        assert K.inv(K.array(nz).reshape(size)).tolist() == [
            pow(x, p - 2, p) for x in nz], size


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
