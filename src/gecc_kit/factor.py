"""Factorisation of integer polynomials into irreducibles over Q.

A polynomial is a dict {exponent tuple: int}; the exponent tuples of one
polynomial all have the same length, and position 0 is the most
significant variable of the lex order that fixes signs. A univariate
polynomial is a list of ints, lowest degree first.

``factor_integer`` takes a polynomial with no monomial content. It takes
out the integer content, then picks a main variable x in which the rest
is primitive (a coefficient that is a nonzero integer shows this with no
GCD). A primitive polynomial of degree 1 in x is irreducible. Otherwise
the other variables are set to small integers that keep the degree in x
and leave the image square-free; this certifies the polynomial
square-free, and an image irreducible over Q certifies it irreducible. If
no such point turns up, Yun's algorithm splits off the square-free parts
first.

GCDs are exact: the heuristic GCD (evaluation at a large integer) is
taken only when exact division checks it and its cofactors are certified
coprime, and primitive pseudo-remainder sequences run otherwise. The
univariate step is Zassenhaus's: distinct- and equal-degree
factorisation mod a small prime, with the degree patterns of three primes
compared first to certify irreducibility without lifting, then linear
Hensel lifting past the Mignotte bound and recombination by trial
division (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch.
14-16). A reducible image is lifted back by multivariate Hensel lifting
(Wang 1978), at the point that gave the fewest image factors, one total
degree at a time and modulo a prime power past a coefficient bound, with
every factor given the polynomial's leading coefficient in x (Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, ch. 6); products of
lifted factors are then tried as factors by exact division.

Every factor returned is primitive over Z with a positive lex-leading
coefficient. The evaluation points come from a fixed sequence, so the
path taken never varies; the factors themselves are unique.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import comb, gcd, isqrt

from .ideal import CertificationFailure

# odd primes for the modular images; 2 is left out so that equal-degree
# splitting can take square roots
_PRIMES = [p for p in range(3, 600) if all(p % q for q in range(2, isqrt(p) + 1))]
_PATTERN_PRIMES = 3      # degree patterns compared before lifting a univariate image
_IMAGE_POINTS = 3        # good evaluation points tried before lifting a multivariate one
_SQUAREFREE_MISSES = 12  # points missed in a row before Yun's algorithm runs
_POINT_ATTEMPTS = 200    # points tried for a square-free part
_COPRIME_POINTS = 8      # points tried per variable to certify two polynomials coprime


# ---------------------------------------------------------------------------
# Univariate arithmetic mod p (lists, lowest degree first, no trailing zeros)


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mul_p(a: list, b: list, p: int) -> list:
    return _trim([c % p for c in _mul_z(a, b)])


def _add_p(a: list, b: list, p: int) -> list:
    return _trim([c % p for c in _add_z(a, b)])


def _divmod_p(a: list, b: list, p: int) -> tuple:
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % p
        if c:
            q[k] = c
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % p
    return q, _trim(a[:db])


def _rem_p(a: list, b: list, p: int) -> list:
    return _divmod_p(a, b, p)[1] if len(a) >= len(b) else a


def _monic_p(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_p(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _rem_p(a, b, p)
    return _monic_p(a, p) if a else a


def _inverse_p(a: list, m: list, p: int) -> list:
    """a^-1 mod m over F_p, for a prime to m."""
    r0, r1, s0, s1 = m, _rem_p(a, m, p), [], [1]
    while len(r1) > 1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add_p(s0, [-c for c in _mul_p(q, s1, p)], p)
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _powmod_p(a: list, e: int, m: list, p: int) -> list:
    out, a = [1], _rem_p(a, m, p)
    while e:
        if e & 1:
            out = _rem_p(_mul_p(out, a, p), m, p)
        e >>= 1
        if e:
            a = _rem_p(_mul_p(a, a, p), m, p)
    return out


def _derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _ddf(f: list, p: int) -> list:
    """Distinct-degree factorisation of monic square-free f: [(product, degree)]."""
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod_p(h, p, f, p)
        g = _gcd_p(f, _add_p(h, [0, -1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_p(f, g, p)[0]
            h = _rem_p(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f: list, d: int, p: int) -> list:
    """Equal-degree splitting (Cantor-Zassenhaus) of monic f, all factors of degree d.

    The trial polynomials are the base-p digit strings of p, p + 1, ...,
    so every polynomial of positive degree is tried in turn and the split
    is deterministic.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p ** d - 1) // 2
    t = p
    while True:
        a, s = [], t
        while s:
            s, c = divmod(s, p)
            a.append(c)
        t += 1
        b = _powmod_p(a, e, f, p)
        g = _gcd_p(f, _add_p(b, [-1], p), p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p) + _edf(_divmod_p(f, g, p)[0], d, p)


# ---------------------------------------------------------------------------
# Univariate factorisation over Z (Zassenhaus)


def _primitive_u(a: list) -> list:
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _mul_z(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add_z(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _divexact_u(a: list, b: list) -> list | None:
    """a / b over Z when b divides a exactly, else None."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    if b[0] and a[0] % b[0]:
        return None
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(a[k + db], lb)
        if r:
            return None
        q[k] = c
        if c:
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    return q if not any(a[:db]) else None


def _good_prime(u: list, start: int = 0) -> int | None:
    """Index of the first prime from ``start`` mod which u keeps its degree and is square-free."""
    du = _derivative(u)
    for k in range(start, len(_PRIMES)):
        p = _PRIMES[k]
        if u[-1] % p == 0:
            continue
        up = _trim([c % p for c in u])
        if len(_gcd_p(up, _trim([c % p for c in du]), p)) == 1:
            return k
    return None


def _factor_univariate(u: list) -> list:
    """Irreducible factors of a primitive square-free u over Z, positive leading coefficients."""
    u = _primitive_u(u)
    n = len(u) - 1
    if n <= 1:
        return [u]
    best = None   # (factor count, p, distinct-degree factorisation)
    sums = -1     # degrees a factor over Q can have, as a bit mask
    k = 0
    for _ in range(_PATTERN_PRIMES):
        k = _good_prime(u, k)
        if k is None:
            break
        p = _PRIMES[k]
        k += 1
        parts = _ddf(_monic_p([c % p for c in u], p), p)
        count = sum((len(g) - 1) // d for g, d in parts)
        mask = 1
        for g, d in parts:
            for _ in range((len(g) - 1) // d):
                mask |= mask << d
        sums &= mask
        if count == 1 or sums == 1 | 1 << n:
            return [u]
        if best is None or count < best[0]:
            best = (count, p, parts)
    if best is None:
        raise CertificationFailure("no prime keeps the image square-free")
    _, p, parts = best
    factors = [f for g, d in parts for f in _edf(g, d, p)]
    # Mignotte: lc * (any factor) has coefficients below |lc| 2^n ||u||_2
    bound = abs(u[-1]) * 2 ** n * (isqrt(sum(c * c for c in u)) + 1)
    P = p
    while P <= 2 * bound:
        P *= p
    return _recombine(u, _hensel(u, factors, p, P), P)


def _hensel(u: list, factors: list, p: int, P: int) -> list:
    """Lift u = lc * prod(factors) mod p (factors monic, coprime) to mod P, a power of p."""
    lc = u[-1]
    taus = []
    for i, f in enumerate(factors):
        other = [lc % p]
        for j, g in enumerate(factors):
            if j != i:
                other = _mul_p(other, g, p)
        taus.append(_inverse_p(other, f, p))
    lifted = [list(f) for f in factors]
    q = p
    while q < P:
        prod = [lc]
        for f in lifted:
            prod = _mul_z(prod, f)
        e = _trim([(a - b) // q % p for a, b in zip(u, prod)])
        if e:
            for f, g, tau in zip(lifted, factors, taus):
                s = _rem_p(_mul_p(e, tau, p), g, p)
                for j, c in enumerate(s):
                    f[j] += q * c
        q *= p
    return lifted


def _recombine(u: list, lifted: list, P: int) -> list:
    """Zassenhaus recombination: products of lifted factors tried by exact division."""
    half = P // 2
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [u[-1]]
            for i in subset:
                g = [c % P for c in _mul_z(g, lifted[i])]
            g = _primitive_u([c - P if c > half else c for c in g])
            q = _divexact_u(u, g)
            if q is not None:
                out.append(g)
                u = q
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    out.append(_primitive_u(u))
    return out


def _squarefree_q(u: list) -> bool:
    """gcd(u, u') over Q is constant.

    A prime mod which u keeps its degree and is square-free proves it; the
    largest primes are tried, as they divide the discriminant least often.
    An exact gcd settles the rest.
    """
    if _good_prime(u, len(_PRIMES) - 8) is not None:
        return True
    f = {(k,): c for k, c in enumerate(u) if c}
    return _constant(_gcd(f, _derivative_in(f, 0)))


# ---------------------------------------------------------------------------
# Univariate arithmetic over Q (lists of Fractions)


def _divmod_q(a: list, b: list) -> tuple:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] / lb
        if c:
            q[k] = c
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    return q, _trim(a[:db])


def _rem_q(a: list, b: list) -> list:
    return _divmod_q(a, b)[1] if len(a) >= len(b) else a


def _inverse_q(a: list, m: list) -> list:
    """a^-1 mod m over Q, for a prime to m."""
    r0, r1, s0, s1 = m, _rem_q(a, m), [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _divmod_q(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _add_z(s0, [-c for c in _mul_z(q, s1)])
    return [c / r1[0] for c in s1]


# ---------------------------------------------------------------------------
# Multivariate arithmetic over Z (dicts)


def _content(f: dict) -> int:
    c = gcd(*f.values())
    return -c if f[max(f)] < 0 else c


def _scale(f: dict, c: int) -> dict:
    return {e: v // c for e, v in f.items()}


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple([a + b for a, b in zip(e1, e2)])
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _sub(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _divexact(f: dict, g: dict) -> dict | None:
    """f / g over Z when g divides f exactly, else None (lex division)."""
    lg = max(g)
    cg = g[lg]
    rest = [(e, c) for e, c in g.items() if e != lg]
    r = dict(f)
    q = {}
    while r:
        lt = max(r)
        m = tuple([a - b for a, b in zip(lt, lg)])
        c, rem = divmod(r.pop(lt), cg)
        if rem or min(m) < 0:
            return None
        q[m] = c
        for e, v in rest:
            t = tuple([a + b for a, b in zip(m, e)])
            w = r.get(t, 0) - c * v
            if w:
                r[t] = w
            else:
                r.pop(t, None)
    return q


def _coefficients(f: dict, i: int) -> dict:
    """{power of variable i: coefficient}, each coefficient free of variable i."""
    out: dict = {}
    for e, c in f.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return out


def _constant(f: dict) -> bool:
    return len(f) == 1 and not any(next(iter(f)))


def _derivative_in(f: dict, i: int) -> dict:
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in f.items() if e[i]}


def _gcd(f: dict, g: dict) -> dict:
    """gcd over Z, with a positive lex-leading coefficient.

    The heuristic GCD answers when its answer checks; the exact
    pseudo-remainder route runs when it does not. The heuristic route is
    there for speed alone: Yun's algorithm on a square of 4-variable
    polynomials is over a hundred times slower on the exact route.
    """
    if not f or not g:
        return _positive(f or g)
    cf, cg = _content(f), _content(g)
    c = gcd(cf, cg)
    f, g = _scale(f, cf), _scale(g, cg)
    h = _heuristic_gcd(f, g) or _exact_gcd(f, g)
    return {e: c * v for e, v in h.items()}


def _heuristic_gcd(f: dict, g: dict) -> dict | None:
    """gcd of integer-primitive f and g by evaluation at an integer, or None.

    One variable is set to xi, the images' gcd is taken, and its xi-adic
    expansion in the symmetric range read back as a polynomial in that
    variable (Char, Geddes and Gonnet 1989). xi is chosen as sympy's
    heuristic GCD chooses it, below the bound that would make the answer
    certain, so the answer is checked: it must divide f and g exactly,
    and the cofactors must be certified coprime.
    """
    present = {j for h in (f, g) for e in h for j, k in enumerate(e) if k}
    if not present:
        return {next(iter(f)): 1}
    v = max(present)
    nf, ng = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(nf, ng) + 29
    xi = max(min(bound, 99 * isqrt(bound)), 2 * min(nf // abs(f[max(f)]), ng // abs(g[max(g)])) + 4)
    for _ in range(6):
        fx, gx = _evaluate(f, v, xi), _evaluate(g, v, xi)
        if fx and gx:
            h = {}
            for m, c in _gcd(fx, gx).items():
                k = 0
                while c:
                    c, r = divmod(c, xi)
                    if 2 * r > xi:
                        c, r = c + 1, r - xi
                    if r:
                        h[m[:v] + (k,) + m[v + 1:]] = r
                    k += 1
            h = _scale(h, _content(h))
            a, b = _divexact(f, h), _divexact(g, h)
            if a is not None and b is not None and _coprime(a, b):
                return h
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _coprime(a: dict, b: dict) -> bool:
    """True when integer-primitive a and b are shown to share no factor of positive degree.

    A common factor involves some variable v of both; at a point that
    keeps both leading coefficients in v nonzero mod p, its image would
    divide both images mod p. So images coprime mod p, one point and
    prime for each shared variable, prove a and b coprime.
    """
    k = len(next(iter(a)))
    shared = {j for e in a for j, t in enumerate(e) if t} & {j for e in b for j, t in enumerate(e) if t}
    for v in shared:
        for point in islice(_points(k, v), _COPRIME_POINTS):
            ua, ub = _image(a, v, point), _image(b, v, point)
            p = next((p for p in _PRIMES[-4:] if ua[-1] % p and ub[-1] % p), None)
            if p and len(_gcd_p(_trim([c % p for c in ua]), _trim([c % p for c in ub]), p)) == 1:
                break
        else:
            return False
    return True


def _evaluate(f: dict, v: int, xi: int) -> dict:
    powers = [1]
    for _ in range(max(e[v] for e in f)):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for e, c in f.items():
        m = e[:v] + (0,) + e[v + 1:]
        out[m] = out.get(m, 0) + c * powers[e[v]]
    return {m: c for m, c in out.items() if c}


def _exact_gcd(f: dict, g: dict) -> dict:
    """gcd of integer-primitive f and g: contents and a primitive PRS in a shared variable."""
    vf = {i for e in f for i, k in enumerate(e) if k}
    vg = {i for e in g for i, k in enumerate(e) if k}
    if not vf or not vg:
        return {next(iter(f)) if not vf else next(iter(g)): 1}
    common = vf & vg
    if not common:
        return _gcd(_content_in(f, min(vf)), g)
    i = min(common, key=lambda j: max(e[j] for e in f) + max(e[j] for e in g))
    cf, cg = _content_in(f, i), _content_in(g, i)
    c = _gcd(cf, cg)
    return _mul(c, _prs_gcd(_divexact(f, cf), _divexact(g, cg), i))


def _content_in(f: dict, i: int) -> dict:
    """gcd over Z of the coefficients of f in variable i."""
    coeffs = sorted(_coefficients(f, i).values(), key=len)
    c = coeffs[0]
    for h in coeffs[1:]:
        if _constant(c) and abs(next(iter(c.values()))) == 1:
            break
        c = _gcd(c, h)
    return _positive(c)


def _positive(f: dict) -> dict:
    """f or -f, whichever has a positive lex-leading coefficient."""
    return {e: -c for e, c in f.items()} if f[max(f)] < 0 else f


def _prs_gcd(a: dict, b: dict, i: int) -> dict:
    """gcd of polynomials primitive in variable i: a primitive pseudo-remainder sequence."""
    if max(e[i] for e in a) < max(e[i] for e in b):
        a, b = b, a
    while True:
        r = _prem(a, b, i)
        if not r:
            return _scale(b, _content(b))
        if not any(e[i] for e in r):
            zero = next(iter(r))
            return {tuple(0 for _ in zero): 1}
        a, b = b, _divexact(r, _content_in(r, i))


def _prem(a: dict, b: dict, i: int) -> dict:
    """Pseudo-remainder of a by b in variable i."""
    cb = _coefficients(b, i)
    db = max(cb)
    lb = cb[db]
    while a:
        da = max(e[i] for e in a)
        if da < db:
            break
        la = _coefficients(a, i)[da]
        shift = tuple(da - db if j == i else 0 for j in range(len(next(iter(a)))))
        a = _sub(_mul(lb, a), _mul(_mul(la, {shift: 1}), b))
    return a


def _yun(f: dict, i: int) -> list:
    """[(part, multiplicity)]: the square-free decomposition of f, primitive in variable i."""
    out = []
    d = _derivative_in(f, i)
    a = _gcd(f, d)
    b = _divexact(f, a)
    c = _divexact(d, a)
    k = 1
    while not _constant(b):
        d = _sub(c, _derivative_in(b, i))
        a = _gcd(b, d) if d else _scale(b, _content(b))
        if not _constant(a):
            out.append((a, k))
        b = _divexact(b, a)
        c = _divexact(d, a) if d else {}
        k += 1
    return out


# ---------------------------------------------------------------------------
# Specialisation


def _points(k: int, i: int):
    """Distinct evaluation points for every variable but i, from a fixed sequence.

    The high bits of a 64-bit linear congruential sequence, in a range
    that widens as attempts fail.
    """
    state, seen = 1, set()
    for attempt in range(_POINT_ATTEMPTS):
        radius = 3 + attempt // 16
        point = []
        for j in range(k):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            point.append(0 if j == i else (state >> 33) % (2 * radius + 1) - radius)
        point = tuple(point)
        if point not in seen:
            seen.add(point)
            yield point


def _image(f: dict, i: int, point: tuple) -> list:
    """f with every variable but i set to the point, as a univariate list in x_i."""
    n = max(e[i] for e in f)
    out = [0] * (n + 1)
    for e, c in f.items():
        for j, k in enumerate(e):
            if k and j != i:
                c *= point[j] ** k
        out[e[i]] += c
    return out


def _shift(f: dict, point: tuple, sign: int = 1) -> dict:
    """f with x_j replaced by x_j + sign * point[j]."""
    for j, a in enumerate(point):
        if not a:
            continue
        a *= sign
        out: dict = {}
        for e, c in f.items():
            k = e[j]
            for t in range(k + 1):
                e2 = e[:j] + (t,) + e[j + 1:]
                out[e2] = out.get(e2, 0) + c * comb(k, t) * a ** (k - t)
        f = {e: c for e, c in out.items() if c}
    return f


# ---------------------------------------------------------------------------
# Multivariate Hensel lifting


def _series(f: dict, i: int) -> dict:
    """{monomial in the other variables (position i zero): univariate list in x_i}."""
    out: dict = {}
    for e, c in f.items():
        m = e[:i] + (0,) + e[i + 1:]
        poly = out.setdefault(m, [])
        if len(poly) <= e[i]:
            poly.extend([0] * (e[i] + 1 - len(poly)))
        poly[e[i]] += c
    return out


def _series_mul(f: dict, g: dict, P: int, top: int | None = None) -> dict:
    """Product of two series mod P, terms of total degree above ``top`` dropped."""
    gs = sorted((sum(m), m, p) for m, p in g.items())
    out: dict = {}
    for m1, p1 in f.items():
        room = None if top is None else top - sum(m1)
        for d2, m2, p2 in gs:
            if room is not None and d2 > room:
                break
            m = tuple([a + b for a, b in zip(m1, m2)])
            prod = _mul_z(p1, p2)
            prev = out.get(m)
            if prev is None:
                out[m] = prod
            else:
                if len(prev) < len(prod):
                    prev.extend([0] * (len(prod) - len(prev)))
                for t, c in enumerate(prod):
                    prev[t] += c
    return {m: q for m, p in out.items() if (q := _trim([c % P for c in p]))}


def _graded(series: dict, top: int) -> list:
    """The series split by total degree: [{monomial: univariate list}] for degrees 0..top."""
    out = [{} for _ in range(top + 1)]
    for m, p in series.items():
        if sum(m) <= top:
            out[sum(m)][m] = p
    return out


def _product_part(graded: list, partial: list, d: int, P: int) -> None:
    """Recompute the degree-d parts of the partial products from the factors' parts."""
    for j in range(1, len(graded)):
        out: dict = {}
        for a in range(d + 1):
            left, right = partial[j - 1][a], graded[j][d - a]
            if left and right:
                for m, p in _series_mul(left, right, P).items():
                    out[m] = _add_p(out.get(m, []), p, P)
        partial[j][d] = {m: p for m, p in out.items() if p}


def _lifting_modulus(F: dict, lc: dict, r: int, base: list, sigmas: list) -> int:
    """A power of a prime, over twice the coefficients of any divisor of lc^(r/2) F,
    modulo which the lifting data keep their denominators and leading coefficients.

    The divisor bound is the product of binomial coefficients of the
    partial degrees times the Mahler measure (Mignotte), below
    2^(sum of partial degrees) ||lc||_1^(r/2) ||F||_2.
    """
    s = r // 2
    k = len(next(iter(F)))
    degrees = sum(max(e[j] for e in F) + s * max(e[j] for e in lc) for j in range(k))
    bound = (2 ** degrees * sum(map(abs, lc.values())) ** s
             * (isqrt(sum(c * c for c in F.values())) + 1))
    units = [c.denominator for u in base + sigmas for c in u] + [u[-1].numerator for u in base]
    for p in _PRIMES:
        if all(d % p for d in units):
            P = p
            while P <= 2 * bound:
                P *= p
            return P
    raise CertificationFailure("no prime keeps the lifting data")


def _lift(F: dict, i: int, images: list) -> tuple:
    """(factors, top, P): series factors of F in the other variables matching the images.

    F is square-free and primitive in x_i, and its image at the origin is
    c * prod(images) with the degree in x_i kept. Each lifted factor gets
    F's leading coefficient lc in x_i, so their product is lc^(r-1) F. The
    lifting runs mod P one total degree at a time up to ``top``, past the
    degree of any product of at most r/2 of the true factors so scaled; in
    the symmetric range mod P those products are exact.
    """
    r = len(images)
    series = _series(F, i)
    n = max(len(p) for p in series.values()) - 1
    lc = {m: p[n] for m, p in series.items() if len(p) > n}
    zero = tuple(0 for _ in next(iter(F)))
    c0 = lc[zero]
    top = max(sum(m) for m in series) + (r // 2) * max(sum(m) for m in lc)
    base = [[Fraction(c0 * c, u[-1]) for c in u] for u in images]
    total = [Fraction(1)]
    for u in base:
        total = _mul_z(total, u)
    sigmas = [_inverse_q(_divmod_q(total, u)[0], u) for u in base]
    P = _lifting_modulus(F, lc, r, base, sigmas)
    base = [[c.numerator * pow(c.denominator, -1, P) % P for c in u] for u in base]
    sigmas = [[c.numerator * pow(c.denominator, -1, P) % P for c in u] for u in sigmas]
    factors = []
    for u in base:
        g = {zero: list(u)}
        for m, c in lc.items():
            if m != zero:
                g[m] = [0] * (len(u) - 1) + [c % P]
        factors.append(g)
    target = series
    lc_series = {m: [c] for m, c in lc.items()}
    for _ in range(r - 1):
        target = _series_mul(target, lc_series, P)
    wanted = _graded(target, top)
    graded = [_graded(g, top) for g in factors]
    # partial[j][d]: degree-d part of factors[0] * ... * factors[j]
    partial = [graded[0]] + [[{} for _ in range(top + 1)] for _ in range(r - 1)]
    _product_part(graded, partial, 0, P)
    for d in range(1, top + 1):
        _product_part(graded, partial, d, P)
        error = dict(wanted[d])
        for m, p in partial[-1][d].items():
            error[m] = _add_p(error.get(m, []), [-c for c in p], P)
        error = {m: e for m, e in error.items() if e}
        if not error:
            continue
        for m, e in error.items():
            for g, part, u, sigma in zip(factors, graded, base, sigmas):
                c = _rem_p(_mul_p(e, sigma, P), u, P)
                if c:
                    g[m] = part[d][m] = _add_p(g.get(m, []), c, P)
        _product_part(graded, partial, d, P)
    return factors, top, P


def _factor_lifted(F: dict, i: int, images: list) -> list:
    """Irreducible factors of F (square-free, primitive in x_i, shifted to the point).

    Products of at most half the lifted factors are tried in turn; each
    one whose primitive part divides F is a factor.
    """
    lifted, top, P = _lift(F, i, images)
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            prod = lifted[subset[0]]
            for j in subset[1:]:
                prod = _series_mul(prod, lifted[j], P, top)
            h = _symmetric(prod, i, P)
            h = _divexact(h, _content_in(h, i))
            q = _divexact(F, h)
            if q is not None:
                out.append(h)
                F = q
                lifted = [g for j, g in enumerate(lifted) if j not in subset]
                break
        else:
            s += 1
    out.append(F)
    return out


def _symmetric(series: dict, i: int, P: int) -> dict:
    """The series as a polynomial over Z, each coefficient in the symmetric range mod P."""
    out = {}
    for m, p in series.items():
        for t, c in enumerate(p):
            if c:
                out[m[:i] + (t,) + m[i + 1:]] = c - P if 2 * c > P else c
    return out


# ---------------------------------------------------------------------------
# Entry point


def factor_integer(f: dict) -> list:
    """[(factor, multiplicity)]: the irreducible factors of f over Q.

    f is a nonzero dict {exponent tuple: int} with no monomial content:
    no variable divides it. Each factor is primitive over Z with a
    positive lex-leading coefficient; constants are dropped.
    """
    out: list = []
    _factor_into(_normal(f), 1, out)
    return out


def _factor_into(f: dict, mult: int, out: list) -> None:
    """Append the factors of f, integer-primitive with a positive lex-leading
    coefficient and no monomial content, each with its multiplicity times
    ``mult``. A content in the other variables has no monomial content
    either."""
    present = [j for j in range(len(next(iter(f)))) if any(e[j] for e in f)]
    if not present:
        return
    i = min(present, key=lambda j: _main_key(f, j))
    coeffs = _coefficients(f, i)
    if not any(_constant(c) for c in coeffs.values()):
        cont = _content_in(f, i)
        if not _constant(cont):
            _factor_into(cont, mult, out)
            f = _divexact(f, cont)
    if max(coeffs) == 1:
        out.append((f, mult))
        return
    found = _good_points(f, i, _IMAGE_POINTS, _SQUAREFREE_MISSES)
    if found:
        parts = [(f, 1, found)]
    else:
        parts = [(a, m, _good_points(a, i, 1, _POINT_ATTEMPTS)) for a, m in _yun(f, i)]
    for a, m, points in parts:
        for g in _factor_squarefree(a, i, points):
            out.append((_normal(g), m * mult))


def _main_key(f: dict, j: int) -> tuple:
    """Prefer a variable with an integer coefficient, then degree 1, then an integer
    leading coefficient, then low degree."""
    coeffs = _coefficients(f, j)
    n = max(coeffs)
    return (not any(_constant(c) for c in coeffs.values()), n > 1, not _constant(coeffs[n]), n, j)


def _good_points(f: dict, i: int, wanted: int, patience: int) -> list:
    """Up to ``wanted`` (point, image factors) with the degree in x_i kept and a square-free image.

    Stops early at an irreducible image, and gives up after ``patience``
    points in a row that miss, as every point does for a polynomial that
    is not square-free. A polynomial in x_i alone is its own image.
    """
    n = max(e[i] for e in f)
    if _only_in(f, i):
        wanted = patience = 1
    found = []
    misses = 0
    for point in _points(len(next(iter(f))), i):
        u = _image(f, i, point)
        if u[n] and _squarefree_q(u):
            factors = _factor_univariate(u)
            found.append((point, factors))
            if len(factors) == 1 or len(found) == wanted:
                break
        elif not found:
            misses += 1
            if misses == patience:
                break
    return found


def _factor_squarefree(f: dict, i: int, points: list) -> list:
    """Irreducible factors of f, square-free and primitive in x_i."""
    if not points:
        raise CertificationFailure("no evaluation point keeps the image square-free")
    point, images = min(points, key=lambda item: len(item[1]))
    if len(images) == 1:
        return [f]
    if _only_in(f, i):
        zero = tuple(0 for _ in point)
        return [{zero[:i] + (t,) + zero[i + 1:]: c for t, c in enumerate(u) if c} for u in images]
    shifted = _shift(f, point)
    return [_shift(h, point, -1) for h in _factor_lifted(shifted, i, images)]


def _only_in(f: dict, i: int) -> bool:
    """f involves no variable but x_i."""
    return not any(k for e in f for j, k in enumerate(e) if j != i)


def _normal(f: dict) -> dict:
    return _scale(f, _content(f))
