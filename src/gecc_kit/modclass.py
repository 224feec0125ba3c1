"""Isomorphism classes of finitely generated modules over the integers.

A class is (rank, invariant factors); the invariant factors form a
divisibility chain d1 | d2 | ... of integers >= 2. These are the
coefficient objects of enriched cycles; the base ring is fixed to Z,
a PID, which is what makes subtraction of cycles well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping


def _factorize(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _primary_exponents(torsion: Iterable[int]) -> dict:
    """prime -> sorted multiset of exponents appearing in the primary parts."""
    primary: dict = {}
    for d in torsion:
        for p, e in _factorize(d).items():
            primary.setdefault(p, []).append(e)
    for p in primary:
        primary[p].sort()
    return primary


def _from_primary(primary: Mapping[int, list]) -> tuple:
    """Rebuild the invariant-factor chain from primary exponent multisets."""
    if not primary:
        return ()
    length = max(len(v) for v in primary.values())
    factors = []
    for slot in range(1, length + 1):
        d = 1
        for p, exps in primary.items():
            if len(exps) >= slot:
                d *= p ** exps[-slot]
        factors.append(d)
    factors.reverse()
    return tuple(factors)


@dataclass(frozen=True)
class ModClass:
    rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        canon = _from_primary(_primary_exponents(self.torsion))
        object.__setattr__(self, "torsion", canon)

    # -- constructors

    @staticmethod
    def zero() -> "ModClass":
        return ModClass(0, ())

    @staticmethod
    def free(rank: int) -> "ModClass":
        return ModClass(rank, ())

    @staticmethod
    def cyclic(d: int) -> "ModClass":
        return ModClass(0, (d,))

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    # -- serialization

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @staticmethod
    def from_json(data: Mapping) -> "ModClass":
        return ModClass(int(data.get("rank", 0)), tuple(int(d) for d in data.get("torsion", ())))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts)


def direct_sum(a: ModClass, b: ModClass) -> ModClass:
    return ModClass(a.rank + b.rank, a.torsion + b.torsion)


def tensor(a: ModClass, b: ModClass) -> ModClass:
    """Tensor product over Z: bilinear on ranks, gcd rule on torsion."""
    torsion = []
    torsion.extend(list(a.torsion) * b.rank)
    torsion.extend(list(b.torsion) * a.rank)
    for d in a.torsion:
        for e in b.torsion:
            g = gcd(d, e)
            if g > 1:
                torsion.append(g)
    return ModClass(a.rank * b.rank, tuple(torsion))


def mod_leq(a: ModClass, b: ModClass) -> bool:
    """a <= b: a is (isomorphic to) a direct summand of b."""
    if a.rank > b.rank:
        return False
    pa = _primary_exponents(a.torsion)
    pb = _primary_exponents(b.torsion)
    for p, exps in pa.items():
        avail = list(pb.get(p, []))
        for e in exps:
            if e not in avail:
                return False
            avail.remove(e)
    return True


def mod_sub(b: ModClass, a: ModClass) -> ModClass:
    """The unique complement c with a (+) c = b; requires a <= b."""
    if not mod_leq(a, b):
        raise ValueError(f"{a} is not a direct summand of {b}")
    pa = _primary_exponents(a.torsion)
    pb = _primary_exponents(b.torsion)
    rest: dict = {}
    for p, exps in pb.items():
        avail = list(exps)
        for e in pa.get(p, []):
            avail.remove(e)
        if avail:
            rest[p] = avail
    return ModClass(b.rank - a.rank, _from_primary(rest))


def divide_free(a: ModClass, n: int) -> ModClass:
    """Solve x (x) Z^n = a when possible; exact-division semantics."""
    if n <= 0:
        raise ValueError("division by a nonpositive free rank")
    if a.rank % n:
        raise ValueError(f"rank {a.rank} is not a multiple of {n}")
    primary = _primary_exponents(a.torsion)
    rest: dict = {}
    for p, exps in primary.items():
        if len(exps) % n:
            raise ValueError(f"torsion of {a} does not divide by Z^{n}")
        grouped: dict = {}
        for e in exps:
            grouped[e] = grouped.get(e, 0) + 1
        quotient = []
        for e, count in grouped.items():
            if count % n:
                raise ValueError(f"torsion of {a} does not divide by Z^{n}")
            quotient.extend([e] * (count // n))
        if quotient:
            rest[p] = sorted(quotient)
    return ModClass(a.rank // n, _from_primary(rest))


def dual_morse(mk: ModClass, mk_plus_1: ModClass) -> ModClass:
    """Degree -k class of the dual: Hom(mk, Z) (+) Ext(mk_plus_1, Z)."""
    return ModClass(mk.rank, mk_plus_1.torsion)
