"""Independent referee for minseq outputs.

Nothing here imports minseq. Linear complexity comes from the classical
Berlekamp-Massey algorithm (connection polynomial C with C(0) = 1 over the
forward sequence), never from the division-free update the library uses.
Polynomials are coefficient lists, lowest degree first, except over GF(2),
where a polynomial or a whole sequence is one int bitmask (bit i holds the
coefficient of x^i, or term t_i).

Conventions shared with minseq's public output: terms t_0, t_1, ... are
s_0, s_-1, ...; f = f_0 + ... + f_d x^d annihilates the first n terms when
sum_j f_j t_{j+k} = 0 for every k = 0 .. n-1-d; its numerator f2 has
coefficients f2_{i-1} = sum_{j>=i} f_j t_{j-i} for i = 1 .. d.
"""

from fractions import Fraction


# -- fields (GF(2) is handled by the bitmask functions further down) ---------

class PrimeField:
    def __init__(self, p):
        self.p = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def clmul(a, b):
    """Carry-less product of two GF(2)[x] bitmasks."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def clmod(a, m):
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


class BinaryExtField:
    """GF(2^m) modulo an irreducible polynomial; log/exp tables built here."""

    def __init__(self, m, modulus):
        self.m, self.modulus = m, modulus
        self.zero, self.one = 0, 1
        order = (1 << m) - 1
        for g in range(2, 1 << m):
            exp, x = [], 1
            for _ in range(order):
                exp.append(x)
                x = clmod(clmul(x, g), modulus)
                if x == 1:
                    break
            if len(exp) == order:
                break
        else:
            raise ValueError(f"no generator for modulus {modulus:#x}")
        self.order = order
        self.exp = exp + exp
        self.log = [0] * (1 << m)
        for i, v in enumerate(exp):
            self.log[v] = i

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        return self.exp[self.order - self.log[a]]


class Rationals:
    """Q with Fraction; integer sequences are refereed here as well."""

    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return Fraction(1) / a

    @staticmethod
    def bits(a):
        a = Fraction(a)
        return max(abs(a.numerator).bit_length(), a.denominator.bit_length())


def field_for(spec):
    """Referee field for a minseq field spec ('gf2' is the bitmask path)."""
    parts = spec.split(":")
    if parts[0] == "gfp":
        return PrimeField(int(parts[1]))
    if parts[0] == "gf2m":
        return BinaryExtField(int(parts[1]), int(parts[2], 16))
    if parts[0] in ("int", "rat"):
        return Rationals()
    raise ValueError(f"no referee field for {spec!r}")


# -- Berlekamp-Massey --------------------------------------------------------

def bm_profile(F, t):
    """LC of t_0 .. t_{k-1} for k = 1 .. n (Massey's algorithm over F)."""
    C, B = [F.one], [F.one]
    L, m, b = 0, 1, F.one
    profile = []
    for k in range(len(t)):
        d = t[k]
        for i in range(1, L + 1):
            if i < len(C):
                d = F.add(d, F.mul(C[i], t[k - i]))
        if d == F.zero:
            m += 1
        else:
            coef = F.mul(d, F.inv(b))
            T = list(C)
            C = C + [F.zero] * (len(B) + m - len(C))
            for i, bi in enumerate(B):
                C[i + m] = F.sub(C[i + m], F.mul(coef, bi))
            if 2 * L <= k:
                L, B, b, m = k + 1 - L, T, d, 1
            else:
                m += 1
        profile.append(L)
    return profile


def bm_profile_gf2(bits, n):
    """Massey's algorithm over GF(2); bits is the sequence as a bitmask."""
    C, B = 1, 1
    L, m = 0, 1
    window = 0  # bit i holds t_{k-i}
    profile = []
    for k in range(n):
        window = (window << 1) | ((bits >> k) & 1)
        if (C & window).bit_count() & 1:
            T = C
            C ^= B << m
            if 2 * L <= k:
                L, B, m = k + 1 - L, T, 1
            else:
                m += 1
        else:
            m += 1
        profile.append(L)
    return profile


def jump_positions(profile):
    """Term counts k at which the linear complexity increases."""
    out, prev = [], 0
    for k, lc in enumerate(profile, start=1):
        if lc > prev:
            out.append(k)
        prev = lc
    return out


# -- polynomials over a field F ---------------------------------------------

def strip(F, f):
    f = list(f)
    while f and f[-1] == F.zero:
        f.pop()
    return f


def poly_mul(F, f, g):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == F.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return strip(F, out)


def poly_sub(F, f, g):
    n = max(len(f), len(g))
    f = list(f) + [F.zero] * (n - len(f))
    g = list(g) + [F.zero] * (n - len(g))
    return strip(F, [F.sub(a, b) for a, b in zip(f, g)])


def poly_eval(F, f, x):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def annihilates(F, f, t):
    f = strip(F, f)
    if not f:
        return False
    d = len(f) - 1
    for k in range(len(t) - d):
        acc = F.zero
        for j, fj in enumerate(f):
            acc = F.add(acc, F.mul(fj, t[j + k]))
        if acc != F.zero:
            return False
    return True


def numerator(F, f, t):
    """f2 with x*f2 = [f * genfn(t)], by the defining sum."""
    f = strip(F, f)
    out = []
    for i in range(1, len(f)):
        acc = F.zero
        for j in range(i, len(f)):
            if j - i < len(t):
                acc = F.add(acc, F.mul(f[j], t[j - i]))
        out.append(acc)
    return strip(F, out)


def determinant_ok(F, mu1, mu2, mup1, mup2, nabla, point=None):
    """mu2*mup1 - mu1*mup2 is the nonzero constant nabla (any one if nabla is None).

    Exact over the finite fields; over Z and Q (point given) the identity
    is checked at that rational point, which a nonzero polynomial of degree
    D can only pass for at most D choices of it.
    """
    if point is None:
        det = poly_sub(F, poly_mul(F, mu2, mup1), poly_mul(F, mu1, mup2))
        return len(det) == 1 and (nabla is None or det[0] == nabla)

    def det_at(x):
        return F.sub(F.mul(poly_eval(F, mu2, x), poly_eval(F, mup1, x)),
                     F.mul(poly_eval(F, mu1, x), poly_eval(F, mup2, x)))

    value = det_at(point)
    if nabla is None:
        return value != F.zero and det_at(point + 1) == value
    return value != F.zero and value == nabla


# -- GF(2) on bitmasks -------------------------------------------------------

def to_mask(coeffs):
    return sum(1 << i for i, c in enumerate(coeffs) if c)


def annihilates_gf2(f, bits, n):
    if not f:
        return False
    d = f.bit_length() - 1
    for k in range(n - d):
        if (f & (bits >> k)).bit_count() & 1:
            return False
    return True


def numerator_gf2(f, bits):
    out = 0
    for i in range(1, f.bit_length()):
        if ((f >> i) & bits).bit_count() & 1:
            out |= 1 << (i - 1)
    return out


def determinant_ok_gf2(mu1, mu2, mup1, mup2, nabla):
    return nabla == 1 and clmul(mu2, mup1) ^ clmul(mu1, mup2) == 1


# -- one verdict per solver output -------------------------------------------

def check_solution(spec, t, out, point=None, nabla_is_det=True):
    """Faults in a full solver output, as a list of strings (empty = ok).

    out holds profile, mu1, mu2, mup1, mup2 and nabla, with field elements
    as ints (Fraction for Q/Z); t is the term list in the same encoding.
    nabla_is_det=False only asks the determinant to be a nonzero constant:
    minseq's normalized solver reports a nabla that is not its determinant.
    """
    faults = []
    if spec == "gf2":
        n, bits = len(t), to_mask(t)
        profile = bm_profile_gf2(bits, n)
        mu1, mu2, mup1, mup2 = (to_mask(out[k]) for k in ("mu1", "mu2", "mup1", "mup2"))
        if list(out["profile"]) != profile:
            faults.append("profile differs from Berlekamp-Massey")
        if mu1.bit_length() - 1 != profile[-1]:
            faults.append("deg mu1 is not the linear complexity")
        if not annihilates_gf2(mu1, bits, n):
            faults.append("mu1 does not annihilate")
        if mu2 != numerator_gf2(mu1, bits):
            faults.append("mu2 is not the bracketed numerator of mu1")
        if not determinant_ok_gf2(mu1, mu2, mup1, mup2, out["nabla"]):
            faults.append("determinant identity fails")
        return faults
    F = field_for(spec)
    profile = bm_profile(F, t)
    mu1 = strip(F, out["mu1"])
    if list(out["profile"]) != profile:
        faults.append("profile differs from Berlekamp-Massey")
    if len(mu1) - 1 != profile[-1]:
        faults.append("deg mu1 is not the linear complexity")
    if not annihilates(F, mu1, t):
        faults.append("mu1 does not annihilate")
    if strip(F, out["mu2"]) != numerator(F, mu1, t):
        faults.append("mu2 is not the bracketed numerator of mu1")
    nabla = out["nabla"] if nabla_is_det else None
    if not determinant_ok(F, mu1, strip(F, out["mu2"]), strip(F, out["mup1"]),
                          strip(F, out["mup2"]), nabla, point):
        faults.append("determinant identity fails")
    return faults


def check_profile(spec, t, profile):
    if spec == "gf2":
        ref = bm_profile_gf2(to_mask(t), len(t))
    else:
        ref = bm_profile(field_for(spec), t)
    return [] if list(profile) == ref else ["profile differs from Berlekamp-Massey"]


def coeff_bits(values):
    """Largest bit size among exact coefficients (numerator or denominator)."""
    return max((Rationals.bits(v) for v in values), default=0)
