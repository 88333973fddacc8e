"""Coefficient domains: GF(2), GF(p), GF(2^m), integers and rationals.

Elements are plain Python values (int, or Fraction for the rationals); a
Domain object carries the arithmetic, parsing and formatting. Domains are
value objects: two instances with the same spec string compare equal, so
containers can check operand compatibility cheaply.

Arithmetic defaults to Python's operators, which int and rat inherit; a
domain overrides only what it reduces (GF(p) mod p, GF(2^m) by XOR and log
tables). GF2 is the p = 2 prime field under its own spec name and literal
rule (0 or 1 only), with XOR and AND for its arithmetic.

Spec strings: ``gf2``, ``gfp:<p>``, ``gf2m:<m>:<hex-modulus>``, ``int``,
``rat``. Element literals: 0/1 for gf2, a decimal residue for gfp, a hex
bit-vector (with or without 0x) for gf2m, a signed decimal for int, and
``p/q`` or a plain integer for rat.
"""

from fractions import Fraction
from math import isqrt
from operator import add, and_, mul, neg, pos, sub, xor

from .errors import (
    MinseqError,
    NotAField,
    NotAFiniteField,
    NotDivisible,
    NotInvertible,
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base above (psi_13); below it
# Miller-Rabin on those bases alone is deterministic.
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Miller-Rabin on the bases 2..41, then Baillie-PSW from _MR_BOUND on.

    Above the bound a strong Lucas test joins base 2; no composite is
    known to pass both.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _is_strong_lucas_prp(n)


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n):
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n is odd and has no prime factor up to 41. D runs over 5, -7, 9, -11,
    ... to the first Jacobi symbol (D/n) = -1, with P = 1, Q = (1 - D)/4;
    n passes when U_t = 0 or V_(t*2^r) = 0 for some r < s, n + 1 = t*2^s.
    """
    if isqrt(n) ** 2 == n:  # no such D exists for a square
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # gcd(D, n) > 1 and |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    t, s = n + 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x & 1 else x) // 2

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 (P = 1), Q^1
    for bit in bin(t)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# -- carry-less polynomial arithmetic on bitmask-encoded GF(2)[x] ------------

def _gf2x_mul(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _gf2x_mod(a, m):
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


def _gf2x_gcd(a, b):
    while b:
        a, b = b, _gf2x_mod(a, b)
    return a


def _gf2x_irreducible(f, m):
    """Rabin's test: x^(2^m) == x mod f, and gcd(x^(2^(m/p)) - x, f) = 1."""
    if f.bit_length() != m + 1:
        return False
    t = 2  # the polynomial x
    powers = [t]
    for _ in range(m):
        t = _gf2x_mod(_gf2x_mul(t, t), f)
        powers.append(t)
    if powers[m] != _gf2x_mod(2, f):
        return False
    for p in range(2, m + 1):
        if m % p == 0 and _is_prime(p):
            if _gf2x_gcd(powers[m // p] ^ 2, f) != 1:
                return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Domain:
    """Arithmetic over one coefficient domain; elements are raw values."""

    name = "?"
    is_field = False
    is_finite = False
    zero = 0
    one = 1

    add = staticmethod(add)
    sub = staticmethod(sub)
    neg = staticmethod(neg)
    mul = staticmethod(mul)

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def exact_div(self, a, b):
        """a / b when the quotient exists in the domain, else NotDivisible."""
        if b == self.zero:
            raise NotDivisible("division by zero")
        if not self.is_unit(b):
            raise NotDivisible(f"{self.format(b)} is not a unit of {self.name}")
        return self.mul(a, self.inv(b))

    def parse(self, text):
        """The element a literal names; a malformed literal is a MinseqError."""
        try:
            return self._parse(text)
        except (ValueError, ZeroDivisionError) as ex:
            raise MinseqError(f"bad {self.name} literal {text!r}: {ex}") from None

    def _parse(self, text):
        raise NotImplementedError

    def format(self, a):
        return str(a)

    @property
    def size(self):
        raise NotAFiniteField(f"{self.name} is not a finite field")

    def elements(self):
        """A finite domain's elements are the ints 0..size-1."""
        return range(self.size)

    def __eq__(self, other):
        return isinstance(other, Domain) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Domain({self.name})"


class PrimeField(Domain):
    is_field = True
    is_finite = True

    def __init__(self, p):
        if not _is_prime(p):
            raise MinseqError(f"gfp modulus {p} is not prime")
        self.p = p
        self.name = f"gfp:{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def _parse(self, text):
        return int(text) % self.p

    @property
    def size(self):
        return self.p


class GF2(PrimeField):
    """GF(p) at p = 2: spec ``gf2``, literals 0 or 1, XOR and AND."""

    name = "gf2"
    p = 2
    add = sub = staticmethod(xor)
    neg = staticmethod(pos)
    mul = staticmethod(and_)

    def __init__(self):  # p = 2 needs no primality check
        pass

    def _parse(self, text):
        v = int(text, 0)
        if v not in (0, 1):
            raise MinseqError(f"gf2 literal must be 0 or 1, got {text!r}")
        return v


class BinaryExtField(Domain):
    """GF(2^m) with a polynomial basis; elements are bitmask ints.

    The modulus must be an irreducible degree-m polynomial (checked at
    construction). Multiplication goes through log/exp tables built from a
    generator of the multiplicative group, so any irreducible modulus works,
    primitive or not.
    """

    is_field = True
    is_finite = True

    def __init__(self, m, modulus):
        if not 1 <= m <= 16:
            raise MinseqError(f"gf2m degree must be between 1 and 16, got {m}")
        if not _gf2x_irreducible(modulus, m):
            raise MinseqError(
                f"gf2m modulus 0x{modulus:X} is not irreducible of degree {m}"
            )
        self.m = m
        self.modulus = modulus
        self.name = f"gf2m:{m}:0x{modulus:X}"
        q = 1 << m
        self._order = q - 1
        self._exp, self._log = self._build_tables(q)

    def _build_tables(self, q):
        order = q - 1
        prime_parts = _prime_factors(order)

        def raw_pow(g, e):
            acc, base = 1, g
            while e:
                if e & 1:
                    acc = _gf2x_mod(_gf2x_mul(acc, base), self.modulus)
                base = _gf2x_mod(_gf2x_mul(base, base), self.modulus)
                e >>= 1
            return acc

        gen = None
        for cand in range(2, q):
            if all(raw_pow(cand, order // p) != 1 for p in prime_parts):
                gen = cand
                break
        if gen is None:  # q == 2: the group is trivial
            gen = 1
        exp = [1] * order
        log = [0] * q
        acc = 1
        for i in range(order):
            exp[i] = acc
            log[acc] = i
            acc = _gf2x_mod(_gf2x_mul(acc, gen), self.modulus)
        return exp, log

    add = sub = staticmethod(xor)
    neg = staticmethod(pos)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._order]

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return self._exp[(self._order - self._log[a]) % self._order]

    def gen_pow(self, e):
        """e-th power of the table generator (handy for building test data)."""
        return self._exp[e % self._order]

    def _parse(self, text):
        t = text.lower()
        v = int(t[2:], 16) if t.startswith("0x") else int(t, 16)
        if not 0 <= v < (1 << self.m):
            raise MinseqError(f"gf2m literal {text!r} out of range")
        return v

    def format(self, a):
        return f"0x{a:X}"

    @property
    def size(self):
        return 1 << self.m


class IntegerRing(Domain):
    name = "int"

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a not in (1, -1):
            raise NotInvertible(f"{a} is not a unit of int")
        return a

    def exact_div(self, a, b):
        if b == 0:
            raise NotDivisible("division by zero")
        q, r = divmod(a, b)
        if r:
            raise NotDivisible(f"{b} does not divide {a}")
        return q

    def _parse(self, text):
        return int(text)


class RationalField(Domain):
    name = "rat"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return 1 / a

    def _parse(self, text):
        return Fraction(text)


_GF2 = GF2()
_INT = IntegerRing()
_RAT = RationalField()


def parse_domain(spec):
    """Build a Domain from its spec string (see module docstring)."""
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "gf2" and len(parts) == 1:
            return _GF2
        if kind == "int" and len(parts) == 1:
            return _INT
        if kind == "rat" and len(parts) == 1:
            return _RAT
        if kind == "gfp" and len(parts) == 2:
            return PrimeField(int(parts[1]))
        if kind == "gf2m" and len(parts) == 3:
            mod = parts[2]
            modulus = int(mod[2:], 16) if mod.startswith("0x") else int(mod, 16)
            return BinaryExtField(int(parts[1]), modulus)
    except ValueError as exc:
        raise MinseqError(f"bad domain spec {spec!r}: {exc}") from None
    raise MinseqError(f"unknown domain spec {spec!r}")


def require_field(dom):
    if not dom.is_field:
        raise NotAField(f"{dom.name} is not a field")


def require_finite_field(dom):
    if not (dom.is_field and dom.is_finite):
        raise NotAFiniteField(f"{dom.name} is not a finite field")
