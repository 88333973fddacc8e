"""Dense univariate polynomials over a coefficient Domain.

Coefficients are stored low-to-high with trailing zeros stripped; the zero
polynomial has an empty list and degree -inf (NEG_INF). Arithmetic assumes
both operands share one domain and raises SpecMismatch otherwise.
"""

from .errors import (
    MinseqError,
    NotDivisible,
    NotInvertible,
    SpecMismatch,
    ZeroPolynomial,
)

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("dom", "coeffs")

    def __init__(self, dom, coeffs):
        zero = dom.zero
        n = len(coeffs)
        while n and coeffs[n - 1] == zero:
            n -= 1
        self.dom = dom
        self.coeffs = list(coeffs[:n])

    @classmethod
    def zero(cls, dom):
        return cls(dom, [])

    @classmethod
    def one(cls, dom):
        return cls(dom, [dom.one])

    @classmethod
    def x(cls, dom):
        return cls(dom, [dom.zero, dom.one])

    @classmethod
    def monomial(cls, dom, c, k):
        """c * x^k"""
        return cls(dom, [dom.zero] * k + [c])

    @classmethod
    def parse(cls, dom, literals):
        """Build from an iterable of element literals, low degree first."""
        return cls(dom, [dom.parse(t) for t in literals])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.dom.zero

    def _check(self, other):
        if not isinstance(other, Poly):
            raise SpecMismatch(f"expected Poly, got {type(other).__name__}")
        if self.dom != other.dom:
            raise SpecMismatch(
                f"domain mismatch: {self.dom.name} vs {other.dom.name}"
            )

    def __add__(self, other):
        self._check(other)
        dom = self.dom
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = dom.add(out[i], c)
        return Poly(dom, out)

    def __sub__(self, other):
        return self.sub_scaled(None, 0, other, None, 0)

    def sub_scaled(self, a, i, other, b, j):
        """a*x^i*self - b*x^j*other in one pass.

        a or b None leaves that side unscaled; i, j >= 0. This is the
        solver's whole update: mu <- a*x^i*mu - b*x^j*mu'.
        """
        self._check(other)
        dom = self.dom
        mul, sub, zero = dom.mul, dom.sub, dom.zero
        f = self.coeffs if a is None else [mul(a, c) for c in self.coeffs]
        g = other.coeffs if b is None else [mul(b, c) for c in other.coeffs]
        if i and f:
            f = [zero] * i + f
        if len(f) < j + len(g):
            f = f + [zero] * (j + len(g) - len(f))
        out = f[:j]
        out += [sub(c, d) for c, d in zip(f[j:], g)]
        out += f[j + len(g):]
        return Poly(dom, out)

    def __neg__(self):
        dom = self.dom
        return Poly(dom, [dom.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        dom = self.dom
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(dom)
        out = [dom.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == dom.zero:
                continue
            for j, bj in enumerate(b):
                if bj == dom.zero:
                    continue
                out[i + j] = dom.add(out[i + j], dom.mul(ai, bj))
        return Poly(dom, out)

    def scale(self, c):
        dom = self.dom
        if c == dom.zero:
            return Poly.zero(dom)
        return Poly(dom, [dom.mul(c, a) for a in self.coeffs])

    def shift(self, k):
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise MinseqError(f"negative shift {k}")
        if self.is_zero or k == 0:
            return self
        return Poly(self.dom, [self.dom.zero] * k + self.coeffs)

    def __call__(self, a):
        dom = self.dom
        acc = dom.zero
        for c in reversed(self.coeffs):
            acc = dom.add(dom.mul(acc, a), c)
        return acc

    def __divmod__(self, other):
        """Long division; needs an invertible leading coefficient in other."""
        self._check(other)
        if other.is_zero:
            raise ZeroPolynomial("polynomial division by zero")
        dom = self.dom
        inv_lc = dom.inv(other.lc)
        db = other.degree
        rem = list(self.coeffs)
        quo = [dom.zero] * max(len(rem) - db, 0)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db]
            if c == dom.zero:
                continue
            q = dom.mul(c, inv_lc)
            quo[k] = q
            for j, bj in enumerate(other.coeffs):
                rem[k + j] = dom.sub(rem[k + j], dom.mul(q, bj))
        return Poly(dom, quo), Poly(dom, rem)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.dom == other.dom
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dom, tuple(self.coeffs)))

    def __repr__(self):
        return f"Poly({self.dom.name}, {self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        dom = self.dom
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == dom.zero:
                continue
            if k == 0:
                parts.append(dom.format(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                if c == dom.one:
                    parts.append(xk)
                else:
                    parts.append(f"{dom.format(c)}*{xk}")
        return " + ".join(parts)


def poly_monicize(f):
    """Divide by the leading coefficient; it must be a unit."""
    if f.is_zero:
        raise ZeroPolynomial("cannot monicize the zero polynomial")
    if not f.dom.is_unit(f.lc):
        raise NotInvertible(
            f"leading coefficient {f.dom.format(f.lc)} is not a unit"
        )
    return f.scale(f.dom.inv(f.lc))


def poly_gcd(f, g):
    """Monic gcd by the Euclidean algorithm; field coefficients only."""
    if not f.dom.is_field:
        raise NotDivisible(f"gcd needs a field, got {f.dom.name}")
    while not g.is_zero:
        f, g = g, divmod(f, g)[1]
    if f.is_zero:
        return f
    return poly_monicize(f)
