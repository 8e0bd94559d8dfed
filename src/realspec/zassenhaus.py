"""The Z[x] kernel on Python ints: gcd, squarefree decomposition and factoring.

Polynomials are lists of Python ints, index = degree. A polynomial is packed
into one big int by Kronecker substitution, its entries placed w bits apart;
packing and unpacking split the list in halves, so both stay subquadratic.

- `gcd` is the heuristic gcd GCDHEU (Char, Geddes and Gonnet, *J. Symbolic
  Comput.* 1989) at a power of two: f and g are evaluated at 2^k by packing,
  the integer gcd of the values is read back as signed base-2^k digits, and a
  candidate is checked by exact long division, which gives the cofactors.
  After `HEU_TRIES` misses sympy's subresultant gcd finishes the job.
- `yun` is Yun's squarefree decomposition (SYMSAC 1976) on `gcd`'s cofactors.
- `zassenhaus` factors a squarefree f: Cantor and Zassenhaus over GF(p), a
  quadratic multifactor Hensel lift to p^l and recombination of the lifted
  factors, as in von zur Gathen and Gerhard, *Modern Computer Algebra*,
  ch. 14-15. Entries are in [0, m) for the modulus m at hand, and a product
  is one big-int multiply of the packed operands, w wide enough for the
  largest convolution sum.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, zip_longest

from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_rr_prs_gcd

#: Evaluation points GCDHEU tries before it falls back to the subresultant gcd.
HEU_TRIES = 6

_LEAF = 32  # entries below which packing and unpacking go one entry at a time


def _pack(a: list[int], w: int) -> int:
    """The sum of a[i] * 2^(w*i); entries of either sign."""
    if len(a) <= _LEAF:
        x = 0
        for c in reversed(a):
            x = (x << w) + c
        return x
    k = len(a) // 2
    return _pack(a[:k], w) + (_pack(a[k:], w) << w * k)


def _unpack(x: int, w: int) -> list[int]:
    """The base-2^w digits of x >= 0, lowest first, up to its highest nonzero one."""
    k = x.bit_length() // w // 2
    if k < _LEAF:
        mask, out = (1 << w) - 1, []
        while x:
            out.append(x & mask)
            x >>= w
        return out
    low = _unpack(x & ((1 << w * k) - 1), w)
    return low + [0] * (k - len(low)) + _unpack(x >> w * k, w)


def _unpack_signed(x: int, w: int) -> list[int]:
    """The a with _pack(a, w) == x and entries in [-2^(w-1), 2^(w-1)), up to
    its highest nonzero one: x plus 2^(w-1) in each of n places, n past its
    length, has the digits a[i] + 2^(w-1)."""
    half, n = 1 << (w - 1), x.bit_length() // w + 2
    return _trim([c - half for c in _unpack(x + _pack([half] * n, w), w)])


def _quo(f: list[int], h: list[int]) -> list[int] | None:
    """f / h over Z by long division, or None as soon as h does not divide f:
    at the first leading entry that lc(h) does not divide, or at a nonzero
    remainder."""
    m, lead = len(h) - 1, h[-1]
    r, low, q = list(f), h[:-1], [0] * (len(f) - m)
    for k in range(len(f) - 1, m - 1, -1):
        c = r[k]
        if c:
            c, rest = divmod(c, lead)
            if rest:
                return None
            q[k - m] = c
            r[k - m:k] = [x - c * y for x, y in zip(r[k - m:k], low)]
    return None if any(r[:m]) else q


def _heu_gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """GCDHEU for primitive f, g of positive degree and positive leading entry,
    with sympy's first point xi and its schedule, each xi rounded up to 2^k
    with k = xi.bit_length() + 1. xi is at least 2 + 2 * |f|/lc(f) for f or g,
    past twice a root bound, so a nonconstant gcd G has |G(2^k)| > 2^(k-1):
    a constant candidate means gcd 1, and a candidate dividing f and g is G."""
    fn, gn = max(map(abs, f)), max(map(abs, g))
    b = 2 * min(fn, gn) + 29
    xi = max(min(b, 99 * math.isqrt(b)), 2 * min(fn // f[-1], gn // g[-1]) + 4)
    for _ in range(HEU_TRIES):
        k = xi.bit_length() + 1
        h = math.gcd(_pack(f, k), _pack(g, k))
        if 0 < h < 1 << (k - 1):  # one signed digit: a constant candidate
            return [1], f, g
        if h:
            h = _primitive(_unpack_signed(h, k))
            qf = _quo(f, h)
            qg = qf and _quo(g, h)
            if qg:
                return h, qf, qg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return [list(reversed(a)) for a in dup_rr_prs_gcd(f[::-1], g[::-1], ZZ)]


def gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for f, g not both zero: h the gcd over Z, with positive
    leading entry and content gcd(content f, content g), as sympy's
    dup_inner_gcd."""
    if not f or not g:
        a = f or g
        s = 1 if a[-1] > 0 else -1
        return [s * c for c in a], [s] if f else [], [s] if g else []
    cf, cg = math.gcd(*f), math.gcd(*g)
    cf, cg = cf if f[-1] > 0 else -cf, cg if g[-1] > 0 else -cg
    c = math.gcd(cf, cg)
    f, g = [x // cf for x in f], [x // cg for x in g]
    h = _heu_gcd(f, g) if len(f) > 1 and len(g) > 1 else ([1], f, g)
    return [c * x for x in h[0]], [cf // c * x for x in h[1]], [cg // c * x for x in h[2]]


def yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive f with positive leading
    entry: the (a, i) with a of positive degree, f the product of the a^i,
    the a squarefree, pairwise coprime, primitive with positive leading
    entry, i increasing.

    With b the product of the factors of multiplicity >= i and c, d as in
    Yun, every cofactor is exact, so d = c - b' has degree deg(b) - 1 unless
    it is 0. d = 0 ends at b; a constant d leaves one linear factor b of
    multiplicity i + d/lc(b), reached directly, not by d/lc(b) more turns
    of a = gcd(b, d) = 1."""
    if len(f) < 2:
        return []
    _, b, c = gcd(f, _derivative(f))
    out, i = [], 1
    while True:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        if len(d) <= 1:
            out.append((b, i + d[0] // b[1] if d else i))
            return out
        a, b, c = gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        i += 1


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    w = 2 * m.bit_length() + len(a).bit_length()
    return [c % m for c in _unpack(_pack(a, w) * _pack(b, w), w)]


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _pdivmod(x: int, hc: int, b: int, m: int, w: int) -> tuple[int, list[int]]:
    """Packed quotient and listed remainder mod m of the packed x by a monic h
    of degree b, where hc packs -h mod m below x^b. Adding c*hc where long
    division subtracts c*h keeps every entry nonnegative and in place; the
    spent entries from x^b up are left unread."""
    mask, q = (1 << w) - 1, 0
    for j in range(x.bit_length() // w - b, -1, -1):
        c = (x >> (j + b) * w & mask) % m
        q = q << w | c
        if c:
            x += c * hc << j * w
    return q, [c % m for c in _unpack(x & ((1 << b * w) - 1), w)]


def _divmod(a: list[int], h: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m of a by h, whose leading entry is a unit mod m."""
    inv, w = pow(h[-1], -1, m), 2 * m.bit_length() + len(a).bit_length() + 1
    q, r = _pdivmod(_pack(a, w), _pack([-c * inv % m for c in h[:-1]], w), len(h) - 1, m, w)
    return [c * inv % m for c in _unpack(q, w)], r


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of a monic a and any b."""
    while b:
        inv, w = pow(b[-1], -1, p), 2 * p.bit_length() + len(a).bit_length() + 1
        a, b = [c * inv % p for c in b], a
        b = _trim(_pdivmod(_pack(b, w), _pack([-c % p for c in a[:-1]], w), len(a) - 1, p, w)[1])
    return a


def _gf_ring(f: list[int], p: int) -> tuple:
    """GF(p)[x]/(f) for a monic f of degree n: p, n, w and x^n, ..., x^(2n-2) mod f packed."""
    n, w = len(f) - 1, 2 * p.bit_length() + (2 * len(f)).bit_length()
    row = low = [-c % p for c in f[:-1]]
    rows = []
    for _ in range(n - 1):
        rows.append(_pack(row, w))
        row = [(c + row[-1] * y) % p for c, y in zip([0] + row[:-1], low)]
    return p, n, w, rows


def _mulmod(a: list[int], b: list[int], ring: tuple) -> list[int]:
    """a*b in the ring, a and b of degree below n: the entries from x^n up fold
    back through the packed powers of x in one sum."""
    p, n, w, rows = ring
    x = _pack(a, w)
    x *= x if a is b else _pack(b, w)
    hi, x = _unpack(x >> w * n, w), x & ((1 << w * n) - 1)
    for c, row in zip(hi, rows):
        x += c % p * row
    return [c % p for c in _unpack(x, w)]


def _powmod(a: list[int], e: int, ring: tuple) -> list[int]:
    out = a
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, ring)
        if bit == "1":
            out = _mulmod(out, a, ring)
    return out


def _edf(g: list[int], d: int, ring: tuple, rng: random.Random) -> list[list[int]]:
    """The monic factors of g, a product of irreducibles of degree d that
    divides the ring's modulus: gcd(g, a^((p^d-1)/2) - 1) for random a."""
    if len(g) - 1 == d:
        return [g]
    p = ring[0]
    while True:
        a = _powmod([rng.randrange(p) for _ in range(len(g) - 1)], (p**d - 1) // 2, ring)
        h = _gcd(g, _sub(_divmod(a, g, p)[1], [1], p), p)
        if 1 < len(h) < len(g):
            return _edf(h, d, ring, rng) + _edf(_divmod(g, h, p)[0], d, ring, rng)


def _gf_factor(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors of a monic squarefree f over GF(p), p odd:
    distinct-degree factoring by repeated p-th powering, then equal-degree
    splitting with a private generator at a fixed seed."""
    ring, out, h, d, rng = _gf_ring(f, p), [], [0, 1], 0, random.Random(0)
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, ring)  # x^(p^d) modulo the first f
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out += _edf(g, d, ring, rng)
            f = _divmod(f, g, p)[0]
    return out + [f] if len(f) > 1 else out


def _fix(x: list[int], m: int, y: list[int], size: int, mod: int) -> list[int]:
    """x + m*y mod mod, y cut to size entries."""
    return [(a + m * b) % mod for a, b in zip_longest(x, y[:size], fillvalue=0)]


def _step(f: list[int], g: list[int], h: list[int], s: list[int], t: list[int],
          m: int, m2: int, last: bool) -> tuple[list[int], list[int], list[int], list[int]]:
    """From f = g*h and s*g + t*h = 1 mod m, h monic, to the same mod m*m2 for
    m2 dividing m (vzGG Algorithm 15.10). The corrections are m times numbers
    mod m2, from packed products that pack each operand once. The last step
    leaves s and t as they are."""
    M, w = m * m2, 2 * m.bit_length() + len(f).bit_length() + 2
    G, H, S, T = (_pack(a, w) for a in (g, h, s, t))
    e = [(x - y) // m % m2 for x, y in zip(f, _unpack(G * H, w))]
    E, hc = _pack(e, w), _pack([-c % m2 for c in h[:-1]], w)
    q, r = _pdivmod(S * E, hc, len(h) - 1, m2, w)
    u = [c % m2 for c in _unpack(T * E + q * G, w)[:len(g)]]
    g2, h2 = _fix(g, m, u, len(g), M), _fix(h, m, r, len(h), M)
    if last:
        return g2, h2, s, t
    # every entry of s*g + t*h - 1 is a multiple of m, so the packed sum is too
    b = _unpack((S * G + T * H - 1) // m + S * _pack(u, w) + T * _pack(r, w), w)
    B = _pack([c % m2 for c in b], w)
    c, d = _pdivmod(S * B, hc, len(h) - 1, m2, w)
    v = _unpack(T * B + c * G, w)
    return g2, h2, _fix(s, -m, d, len(h) - 1, M), _fix(t, -m, v, len(g) - 1, M)


def _lift(f: list[int], fs: list[list[int]], p: int, l: int) -> list[list[int]]:
    """Monic lifts mod p^l of the monic factors fs of f mod p, p not dividing lc(f):
    split fs in two halves, lift the pair of products, then each half."""
    if len(fs) == 1:
        pl = p**l
        inv = pow(f[-1], -1, pl)
        return [[c * inv % pl for c in f]]
    k = len(fs) // 2
    g, h = [f[-1] % p], fs[k]
    for fi in fs[:k]:
        g = _mul(g, fi, p)
    for fi in fs[k + 1:]:
        h = _mul(h, fi, p)
    r0, r1, s0, s1 = g, h, [1], []  # s1*g = r1 mod h, until r1 is a unit
    while len(r1) > 1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, _trim(r), s1, _sub(s0, _mul(q, s1, p), p)
    inv = pow(r1[0], -1, p)
    s = [c * inv % p for c in s1]
    t = _divmod(_sub([1], _mul(s, g, p), p), h, p)[0]
    exps = [l]
    while exps[-1] > 1:
        exps.append((exps[-1] + 1) // 2)
    for a, b in zip(exps[:0:-1], exps[-2::-1]):
        g, h, s, t = _step(f, g, h, s, t, p**a, p**(b - a), b == l)
    return _lift(g, fs[:k], p, l) + _lift(h, fs[k:], p, l)


def _product(lc: int, gs: list[list[int]], part: tuple[int, ...] | list[int], pl: int) -> list[int]:
    """lc times the product of the lifted factors gs[i], i in part, in symmetric residues mod pl."""
    out = [lc]
    for i in part:
        out = _mul(out, gs[i], pl)
    return [c - pl if c > pl // 2 else c for c in out]


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [c // g for c in a]


def zassenhaus(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive squarefree f of positive
    degree and positive leading entry, each primitive with a positive leading
    entry, in no particular order."""
    n, lc = len(f) - 1, f[-1]
    if n == 1:
        return [f]
    tried, p = [], 1
    while True:  # the first good prime, or the best of 5 while 15+ factors are left
        p += 2
        if lc % p == 0 or not all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        inv = pow(lc, -1, p)
        fp = [c * inv % p for c in f]
        if len(_gcd(fp, _trim([c % p for c in _derivative(fp)]), p)) > 1:
            continue
        tried.append((len(fs := _gf_factor(fp, p)), p, fs))
        if len(fs) < 15 or len(tried) == 5:
            break
    _, p, fs = min(tried, key=lambda x: x[0])
    if len(fs) == 1:
        return [f]
    # Mignotte: lc*f = G*H over Z with lc(G) = lc(H) = lc has |G|_1 * |H|_1 <= B; p^l > 2B
    bound = math.isqrt((n + 1) * (2**n * max(map(abs, f)) * lc) ** 2) + 1
    l, pl = 1, p
    while pl <= 2 * bound:
        l, pl = l + 1, pl * p
    gs, factors, left, size = _lift(f, fs, p, l), [], list(range(len(fs))), 1
    while 2 * size <= len(left):  # recombine subsets of the lifted factors, smallest first
        for part in combinations(left, size):
            G = _primitive(_product(lc, gs, part, pl))
            if G[0] and f[0] % G[0]:
                continue
            rest = [i for i in left if i not in part]
            H = _product(lc, gs, rest, pl)
            if sum(map(abs, G)) * sum(map(abs, H)) <= bound:
                factors, left, f = factors + [G], rest, _primitive(H)
                lc = f[-1]
                break
        else:
            size += 1
    return factors + [f]
