"""Seeded input generators.

Every generator takes a random.Random built from the run's --seed and
returns terms as Python values; the workloads turn them into the text
literals the program parses. Nothing here imports minseq.
"""

from referee import PrimeField


def gf2_random(rng, n):
    return [rng.getrandbits(1) for _ in range(n)]


def gf2_lfsr(rng, n, L):
    """Output of a random L-stage Fibonacci LFSR: linear complexity <= L."""
    taps = rng.getrandbits(L) | 1
    state = rng.getrandbits(L) | 1
    out = []
    for _ in range(n):
        out.append(state & 1)
        fb = (state & taps).bit_count() & 1
        state = (state >> 1) | (fb << (L - 1))
    return out


def small_ints(rng, n, lo=-5, hi=5):
    return [rng.randint(lo, hi) for _ in range(n)]


def _size(F):
    return F.p if isinstance(F, PrimeField) else 1 << F.m


def field_random(rng, F, n):
    return [rng.randrange(_size(F)) for _ in range(n)]


def field_lrs(rng, F, n, factor, L):
    """Terms annihilated by factor * g with g random monic of degree L - deg factor.

    factor is a coefficient list (lowest first). The recurrence is
    t_{k+L} = -sum_{j<L} f_j t_{k+j}, which is exactly the annihilator
    condition of the referee module.
    """
    size = _size(F)
    g = [rng.randrange(size) for _ in range(L - (len(factor) - 1))] + [F.one]
    f = [F.zero] * L + [F.zero]
    for i, a in enumerate(factor):
        for j, b in enumerate(g):
            f[i + j] = F.add(f[i + j], F.mul(a, b))
    t = [rng.randrange(size) for _ in range(L)]
    for k in range(n - L):
        acc = F.zero
        for j in range(L):
            acc = F.add(acc, F.mul(f[j], t[k + j]))
        t.append(F.sub(F.zero, acc))
    return t, f


def unit_discrepancy_ints(rng, n, p_zero=0.25):
    """Integers on which the division-free update only meets discrepancies 0, +-1.

    Replays the division-free recurrence (mu <- deltaP*mu - delta*x^k*muP)
    on mu1 alone and picks each next term so that the discrepancy is a
    chosen value in {-1, 0, 1}; the leading coefficient of mu1 is a product
    of earlier discrepancies, hence +-1, so that term is an integer.
    Coefficients then grow by additions only instead of by products.
    """
    mu1, mup1, dp, e, t = [1], [], 1, 1, []
    for k in range(n):
        d = len(mu1) - 1
        rest = sum(mu1[j] * t[k - d + j] for j in range(d))
        target = 0 if rng.random() < p_zero else rng.choice((-1, 1))
        t.append((target - rest) * mu1[d])
        if target:
            if e <= 0:
                a, b = [dp * c for c in mu1], [0] * -e + [target * c for c in mup1]
            else:
                a, b = [0] * e + [dp * c for c in mu1], [target * c for c in mup1]
                mup1, dp, e = mu1, target, -e
            a += [0] * (len(b) - len(a))
            for i, c in enumerate(b):
                a[i] -= c
            while a[-1] == 0:
                a.pop()
            mu1 = a
        e += 1
    return t
