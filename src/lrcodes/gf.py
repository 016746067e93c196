"""Exact arithmetic for prime fields GF(p) and binary extension fields GF(2^e).

Elements are stored as canonical integers: residues for GF(p), and for
GF(2^e) the integer whose base-2 digits are the coefficients of the
polynomial representative (bit i holds the coefficient of x^i). All
arithmetic is exact; nothing here touches floating point.

General GF(p^e) with odd p is deliberately unsupported: every size
requirement in this package can be met by a prime or a power of two.

`field_kernel` gives the same arithmetic on numpy arrays for the batched
elimination in construction and verification; every branch on the field
kind for array code lives there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import (
    BoundTooLarge,
    CompositeCharacteristic,
    DivisionByZero,
    ReduciblePolynomial,
    UnsupportedExtension,
)

__all__ = [
    "FieldSpec",
    "field_make",
    "field_at_least",
    "field_kernel",
    "is_prime",
    "IRREDUCIBLE_POLY",
]

# Smallest-integer monic irreducible polynomial over GF(2) per degree,
# encoded as bitmasks (bit i = coefficient of x^i). Fixed constants so
# binary-field arithmetic is reproducible across runs and machines.
IRREDUCIBLE_POLY: dict[int, int] = {
    2: 0b111,               # x^2 + x + 1
    3: 0b1011,              # x^3 + x + 1
    4: 0b10011,             # x^4 + x + 1
    5: 0b100101,            # x^5 + x^2 + 1
    6: 0b1000011,           # x^6 + x + 1
    7: 0b10000011,          # x^7 + x + 1
    8: 0b100011011,         # x^8 + x^4 + x^3 + x + 1
    9: 0b1000000011,        # x^9 + x + 1
    10: 0b10000001001,      # x^10 + x^3 + 1
    11: 0b100000000101,     # x^11 + x^2 + 1
    12: 0b1000000001001,    # x^12 + x^3 + 1
    13: 0b10000000011011,   # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000100001,  # x^14 + x^5 + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10000000000101011,  # x^16 + x^5 + x^3 + x + 1
}

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _MR_WITNESSES
# (1287836182261 * 2575672364521): is_prime is exact below it.
_MR_EXACT_BELOW = 3317044064679887385961981
# The largest field order field_at_least returns.
_CEILING = 2 ** 31
# Binary fields stop here: the built-in moduli and the kernel's tables.
_MAX_BINARY_DEGREE = 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every n below
    _MR_EXACT_BELOW = 3,317,044,064,679,887,385,961,981; from there on it
    raises BoundTooLarge rather than answer, and field_make refuses."""
    if n >= _MR_EXACT_BELOW:
        raise BoundTooLarge(
            f"{n} is too large to prove prime; it must be below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_mul_gf2(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials in bitmask form."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod_gf2(a: int, modulus: int) -> int:
    """Remainder of a modulo the given polynomial, both bitmasks."""
    dm = modulus.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= modulus << (a.bit_length() - 1 - dm)
    return a


def _poly_irreducible_gf2(poly: int) -> bool:
    """Trial division over GF(2) by every polynomial of degree 1 .. deg/2, x
    (2) first; adequate for the supported degrees, all at least 2."""
    deg = poly.bit_length() - 1
    return all(_poly_mod_gf2(poly, divisor) for divisor in range(2, 1 << (deg // 2 + 1)))


class FieldSpec:
    """A finite field GF(p) or GF(2^e), operating on integer representatives.

    Parameters
    ----------
    characteristic : int
        Prime characteristic p.
    degree : int
        Extension degree e; 1 for prime fields, and then characteristic
        must be 2 for e > 1.
    modulus_poly : int, optional
        Irreducible polynomial bitmask of degree e. When omitted for
        e > 1, the built-in table supplies a fixed polynomial.

    Notes
    -----
    Use :func:`field_make` rather than the constructor when input comes
    from outside; the constructor assumes already-validated arguments.
    Arithmetic methods (`add`, `mul`, ...) act on canonical integers.
    """

    __slots__ = ("p", "e", "poly", "q")

    def __init__(self, p: int, e: int = 1, poly: int = 0) -> None:
        self.p = p
        self.e = e
        self.poly = poly if e > 1 else 0
        self.q = p ** e

    # identity

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.e, self.poly) == (other.p, other.e, other.poly)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.poly))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.e == 1 else f"GF(2^{self.e})"

    # canonicalization

    def canon(self, value: int) -> int:
        """Reduce an arbitrary integer to its canonical representative."""
        if self.e == 1:
            return value % self.p
        if 0 <= value < self.q:
            return value
        return _poly_mod_gf2(abs(value), self.poly)

    # arithmetic on canonical integers

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return _poly_mod_gf2(_poly_mul_gf2(a, b), self.poly)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, exponent: int) -> int:
        if self.e == 1:
            if exponent < 0:
                return pow(self.inv(a), -exponent, self.p)
            return pow(a, exponent, self.p)
        if exponent < 0:
            a = self.inv(a)
            exponent = -exponent
        result = 1
        base = a
        while exponent:
            if exponent & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exponent >>= 1
        return result


def field_make(characteristic: int, degree: int = 1,
               modulus_poly: Optional[int] = None) -> FieldSpec:
    """Build a validated FieldSpec.

    `modulus_poly` is a bitmask (bit i = coefficient of x^i), monic of
    the requested degree and irreducible over GF(2); omitted, the
    built-in table is used. Degrees stop at 16. A prime field (degree 1)
    has no modulus: a nonzero one raises.
    """
    if not is_prime(characteristic):
        raise CompositeCharacteristic(f"{characteristic} is not prime")
    if degree < 1:
        raise UnsupportedExtension(f"degree must be >= 1, got {degree}")
    if degree == 1:
        if modulus_poly:
            raise ReduciblePolynomial(
                f"GF({characteristic}) has no modulus, got poly {modulus_poly}")
        return FieldSpec(characteristic, 1, 0)
    if characteristic != 2:
        raise UnsupportedExtension(
            f"extension fields are supported only over GF(2), "
            f"got characteristic {characteristic}")
    if degree > _MAX_BINARY_DEGREE:
        raise UnsupportedExtension(
            f"binary fields stop at degree {_MAX_BINARY_DEGREE}, got {degree}")
    if modulus_poly is None:
        poly = IRREDUCIBLE_POLY[degree]
    else:
        poly = modulus_poly
        if poly.bit_length() - 1 != degree:
            raise ReduciblePolynomial(
                f"modulus must be monic of degree {degree}, "
                f"got degree {poly.bit_length() - 1}")
        if not _poly_irreducible_gf2(poly):
            raise ReduciblePolynomial(
                f"polynomial {bin(poly)} is reducible over GF(2)")
    return FieldSpec(2, degree, poly)


def field_at_least(bound: int, prefer: str = "prime") -> FieldSpec:
    """Smallest supported field of order >= bound.

    prefer="prime" walks up to the next prime, up to 2^31;
    prefer="binary" rounds up to the next power of two, up to 2^16.
    Raises BoundTooLarge past either cap.
    """
    if bound < 2:
        bound = 2
    if prefer == "prime":
        q = bound
        while q <= _CEILING:
            if is_prime(q):
                return FieldSpec(q, 1, 0)
            q += 1
        raise BoundTooLarge(f"bound {bound} passes the 2^31 cap" if bound > _CEILING
                            else f"no prime in [{bound}, {_CEILING}]")
    if prefer == "binary":
        e = max(1, (bound - 1).bit_length())
        if e > _MAX_BINARY_DEGREE:
            raise BoundTooLarge(
                f"2^{e} exceeds the supported binary degrees "
                f"(2..{_MAX_BINARY_DEGREE})")
        return field_make(2, e)
    raise ValueError(f"prefer must be 'prime' or 'binary', got {prefer!r}")


class _Kernel:
    """Field arithmetic on numpy arrays of canonical representatives.

    Subclasses supply the order `q`, `dtype`, `mul`, `cross` (u*s - v*t),
    the in-place `fma` (acc += b*c) and `fms` (acc -= b*c), and `inv` over
    a 1-D batch of nonzero elements. Operands broadcast like numpy operands.
    """

    q: int
    dtype: object

    def array(self, data) -> np.ndarray:
        return np.array(data, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def lines(self, b: int, rows: int) -> Iterator[np.ndarray]:
        """One vector per line through the origin of GF(q)^b, in
        lexicographic order, as N x b arrays of at most `rows` vectors: the
        one whose first nonzero entry is 1, which is the line's first."""
        q = self.q
        for t in range(b):  # entries after the leading 1
            total = q ** t
            for lo in range(0, total, rows):
                idx = np.arange(lo, min(lo + rows, total),
                                dtype=np.int64 if total < 2 ** 63 else object)
                out = self.zeros((idx.size, b))
                out[:, b - 1 - t] = 1
                for s in range(t):
                    out[:, b - t + s] = idx // q ** (t - 1 - s) % q
                yield out

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B over the field for a ... x l x m array A and an m x n
        array B, or a ... x m x n batch of them, broadcast like numpy's."""
        acc = self.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                         + A.shape[-2:-1] + B.shape[-1:])
        for j in range(B.shape[-2]):
            self.fma(acc, A[..., j, None], B[..., j, None, :])
        return acc


class _PrimeKernel(_Kernel):
    """GF(p) on residues. int64 while a product plus a residue fits in 63
    bits; larger primes use object arrays of Python ints, which cannot
    overflow."""

    def __init__(self, p: int) -> None:
        self.p = self.q = p
        self.dtype = np.int64 if p * (p - 1) < 2 ** 63 else object
        # a multiple of p that keeps u*s - v*t non-negative where the sum
        # fits in int64, as numpy's % is slower on negative operands
        self.lift = p * (p - 1) if 2 * p * (p - 1) < 2 ** 63 else 0

    def mul(self, a, b):
        return a * b % self.p

    def cross(self, u, s, v, t):
        # one reduction, as each product of residues is below p(p-1);
        # u * s must have the shape of the result
        out = u * s
        out += self.lift
        out -= v * t
        out %= self.p
        return out

    def fma(self, acc: np.ndarray, b, c) -> None:
        acc += b * c
        acc %= self.p

    def fms(self, acc: np.ndarray, b, c) -> None:
        acc -= b * c
        acc %= self.p

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # one reduction at the end while m products of residues fit in int64
        if self.dtype is np.int64 and B.shape[-2] * (self.p - 1) ** 2 < 2 ** 63:
            out = A @ B
            out %= self.p
            return out
        return super().matmul(A, B)

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Product tree: multiply neighbours pairwise up to one product,
        then split its inverse back down. The last element of an odd
        level is carried aside, and the root and the carried elements are
        inverted together with one scalar power. About three products per
        element and no table."""
        p = self.p
        levels, aside = [], []
        x = a
        while x.size > 1:
            levels.append(x)
            if x.size & 1:
                aside.append(int(x[-1]))
            x = x[0:x.size - 1:2] * x[1::2] % p
        top = [int(v) for v in x] + aside
        inv, t = [], 1
        for v in top:  # each entry's prefix product, then their inverses
            inv.append(t)
            t = t * v % p
        t = pow(t, p - 2, p)
        for i in reversed(range(len(top))):
            inv[i], t = inv[i] * t % p, t * top[i] % p
        out = self.array(inv[:x.size])
        for x in reversed(levels):
            up = np.empty_like(x)
            up[0:x.size - 1:2] = out * x[1::2] % p
            up[1::2] = out * x[0:x.size - 1:2] % p
            if x.size & 1:
                up[-1] = inv.pop()
            out = up
        return out


class _BinaryKernel(_Kernel):
    """GF(2^e) on int64 bit patterns: addition is xor, products go through
    log and antilog tables over the first primitive element found (x is
    not primitive for every modulus)."""

    dtype = np.int64

    def __init__(self, field: FieldSpec) -> None:
        q = self.q = field.q
        for g in range(2, q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = field.mul(x, g)
            if len(powers) == q - 1:
                break
        self.log = np.empty(q, dtype=np.int64)
        self.log[powers] = np.arange(q - 1)
        # log[0] pushes every sum that involves zero into a zero tail
        self.log[0] = 2 * (q - 1)
        table = np.array(powers, dtype=np.int64)
        self.exp = np.concatenate(
            [table, table, np.zeros(2 * (q - 1) + 1, dtype=np.int64)])

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def cross(self, u, s, v, t):
        return self.mul(u, s) ^ self.mul(v, t)

    def fma(self, acc: np.ndarray, b, c) -> None:
        acc ^= self.mul(b, c)

    fms = fma

    def inv(self, a: np.ndarray) -> np.ndarray:
        return self.exp[self.q - 1 - self.log[a]]


@lru_cache(maxsize=64)
def field_kernel(field: FieldSpec) -> _Kernel:
    """The numpy kernel of a field, built on first use and kept per field."""
    if field.e == 1:
        return _PrimeKernel(field.p)
    return _BinaryKernel(field)
