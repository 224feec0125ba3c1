"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable term maps over an explicit variable context.
Three ambient-space flavours of variables occur (base coordinates,
cotangent coordinates, projective tags) and are never mixed in a slot.

A coefficient is an ``int`` when it is integral and a ``Fraction`` only
when it is not; a float is refused. Equal polynomials therefore have
equal term maps, and the integer coefficients most polynomials carry
cost no Fraction construction, normalisation or hashing.

A monomial order is defined once, by its weight rows, and used as a
``_Packing``: exponents in fixed-width fields of one int, below the order
key that the rows fold into one weight per variable, so ints compare as
the order does. The Groebner kernel in ``ideal`` works on these ints, and
``__str__`` sorts terms by the degrevlex key. No other module reads an
order's fields.

The parser caps exponents, the degree and term count of a power, and
the term pairs that one call's products multiply (``EXPONENT_CAP``,
``PRODUCT_CAP``), and refuses input past them before computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from functools import lru_cache
from itertools import chain
from operator import add, mul
from typing import Iterable, Mapping, Sequence

BASE = "base"
COTANGENT = "cotangent"
PROJECTIVE = "projective-tag"

Exponent = tuple  # tuple[int, ...]

# largest exponent, degree in one variable and term count of a power that
# ``parse_polynomial`` accepts; ``ideal.VECDIM_CAP`` is the same number
EXPONENT_CAP = 200_000
# most term pairs that the products and powers of one ``parse_polynomial``
# call multiply: (x+y+z)^80 takes 668,763, (x+y+z)^90 is refused
PRODUCT_CAP = 1_000_000


class ContextMismatch(ValueError):
    """Operands live in different variable contexts."""


class ParseError(ValueError):
    """Polynomial source text is malformed; carries line/column."""

    def __init__(self, message: str, line: int = 1, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ExponentTooLarge(ParseError):
    """Polynomial source text holds an exponent or a power above ``EXPONENT_CAP``,
    or products of more than ``PRODUCT_CAP`` term pairs."""


@dataclass(frozen=True, order=True)
class Variable:
    name: str
    kind: str = BASE
    index: int = 0


class VarContext:
    """Ordered, immutable list of variables shared by a family of polynomials."""

    __slots__ = ("variables", "_by_name", "_hash")

    def __init__(self, variables: Sequence[Variable]):
        vs = tuple(variables)
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in context: {names}")
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "_by_name", {v.name: i for i, v in enumerate(vs)})
        object.__setattr__(self, "_hash", hash(vs))

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarContext) and self.variables == other.variables

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "VarContext(" + ", ".join(v.name for v in self.variables) + ")"

    def names(self) -> tuple:
        return tuple(v.name for v in self.variables)

    def position(self, var: Variable | str) -> int:
        name = var if isinstance(var, str) else var.name
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in {self!r}") from None

    def gen(self, var: Variable | str) -> "Polynomial":
        i = self.position(var)
        exp = tuple(1 if j == i else 0 for j in range(len(self)))
        return Polynomial.from_clean(self, {exp: 1})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = coefficient(c)
        if c == 0:
            return self.zero()
        return Polynomial.from_clean(self, {(0,) * len(self): c})

    def extend(self, extra: Sequence[Variable]) -> "VarContext":
        return VarContext(self.variables + tuple(extra))


def base_context(names: Sequence[str]) -> VarContext:
    return VarContext(tuple(Variable(n, BASE, i) for i, n in enumerate(names)))


# ---------------------------------------------------------------------------
# Monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order with 1 minimal, defined by its weight rows.

    kind 'block' compares a leading variable block first (both blocks
    degrevlex); ``perm`` optionally permutes exponent slots before
    comparison, which is how elimination blocks for arbitrary variable
    subsets are formed. No other module reads these fields: an order
    reaches the rest of the engine as its ``_packing``.
    """

    kind: str = "degrevlex"  # lex | degrevlex | block
    split: int = 0
    perm: tuple | None = None

    def weight_rows(self, n: int) -> list:
        """The order as 0/1 weight rows, each a tuple of the positions weighted 1.

        One monomial is below another when, at the first row whose sums
        differ, its sum is smaller (Robbiano 1985). A degrevlex block over
        slots s_0..s_k-1 gives its total degree, then the sums over
        s_0..s_j for j = k-2 down to 0: with the rows above equal, a larger
        sum is a smaller last exponent of the block.
        """
        if self.perm is not None and len(self.perm) != n:
            raise ValueError("order permutation length does not match context")
        perm = self.perm if self.perm is not None else tuple(range(n))
        if self.kind == "lex":
            return [(i,) for i in perm]
        if self.kind == "degrevlex":
            blocks = [perm]
        elif self.kind == "block":
            blocks = [perm[:self.split], perm[self.split:]]
        else:
            raise ValueError(f"unknown monomial order kind {self.kind!r}")
        return [block[:j] for block in blocks for j in range(len(block), 0, -1)]

    def ranks_as_degrevlex(self, support: set, n: int) -> bool:
        """The order ranks the monomials in the variables at support as degrevlex does.

        That is plain degrevlex, or a permuted degrevlex or block order
        that keeps those variables' relative order and, for a block order,
        eliminates none of them; never lex.
        """
        if self.kind == "lex":
            return False
        perm = self.perm if self.perm is not None else range(n)
        if self.kind == "block" and not support.isdisjoint(perm[:self.split]):
            return False
        ranked = [i for i in perm if i in support]
        return ranked == sorted(ranked)

    def __post_init__(self):
        p = "" if self.perm is None else ",".join(map(str, self.perm))
        object.__setattr__(self, "_signature", f"{self.kind}:{self.split}:{p}")

    def signature(self) -> str:
        """The order as text, built once: a key for per-order caches."""
        return self._signature


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


def block_order(drop_positions: Sequence[int], n: int) -> MonomialOrder:
    """Elimination order whose leading block is the given positions."""
    drop = tuple(drop_positions)
    rest = tuple(i for i in range(n) if i not in set(drop))
    return MonomialOrder("block", split=len(drop), perm=drop + rest)


# ---------------------------------------------------------------------------
# Packed monomials


class _Packing:
    """The monomials of one order in n variables as ints, at one field width.

    The exponent of variable i sits in the field of ``width`` bits at bit
    i * width; the field's top bit is a guard, clear while the exponent is
    below 2^(width-1). The order's weight rows, folded in a radix above any
    row sum of such exponents, give one integer weight per variable, and
    the key of an exponent is its dot product with them. A monomial is the
    int key << bits | fields: ints compare as the order does, a product is
    a sum and a quotient a difference (Bachmann and Schoenemann 1998).
    """

    __slots__ = ("width", "bits", "guard", "mask", "values", "shifts", "weights")

    def __init__(self, rows: list, n: int, width: int):
        radix = width - 1 + n.bit_length()  # every row sum stays below 2^radix
        keys = [0] * n
        for row in rows:
            keys = [k << radix for k in keys]
            for i in row:
                keys[i] += 1
        self.width = width
        self.bits = n * width
        self.shifts = tuple(range(0, self.bits, width))
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.mask = (1 << self.bits) - 1
        self.values = (1 << (width - 1)) - 1
        self.weights = tuple((k << self.bits) | (1 << s) for k, s in zip(keys, self.shifts))

    def monomial(self, e: Sequence[int]) -> int:
        return sum(map(mul, e, self.weights))

    def exponent(self, m: int) -> tuple:
        values = self.values
        return tuple([(m >> s) & values for s in self.shifts])

    def divides(self, a: int, b: int) -> bool:
        """Monomial a divides b: no field of b less a borrows from its guard bit.

        a and b may carry their keys, which lie above the fields.
        """
        guard = self.guard
        return ((b | guard) - a) & guard == guard

    def lcm(self, a: int, b: int) -> int:
        """Fields of lcm(a, b), without the key: a guard-bit select."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # guard bits of the fields where a >= b
        return (b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))) & self.mask


@lru_cache(maxsize=None)
def _packing(order: MonomialOrder, n: int, width: int) -> _Packing:
    return _Packing(order.weight_rows(n), n, width)


def _top_exponent(p: Polynomial) -> int:
    return max(chain.from_iterable(p.terms), default=0)


def _width(polys: Iterable[Polynomial], width: int = 16) -> int:
    """The narrowest field width, from ``width`` up by doubling, that holds polys."""
    return _width_for(max(map(_top_exponent, polys), default=0), width)


def _width_for(top: int, width: int = 16) -> int:
    """The narrowest field width, from ``width`` up by doubling, that holds top."""
    while top >> (width - 1):
        width *= 2
    return width


# ---------------------------------------------------------------------------
# Coefficients


def coefficient(c) -> int | Fraction:
    """c as a coefficient: an int when integral, else a Fraction.

    TypeError for anything but an int or a Fraction, a float above all.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"a coefficient is an int or a Fraction, not {type(c).__name__}: {c!r}")


def quotient(a, b) -> int | Fraction:
    """The exact coefficient a / b; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return coefficient(Fraction(a) / b)


def _integral(terms: dict) -> dict:
    """terms, each integral Fraction among its coefficients made an int, in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


# ---------------------------------------------------------------------------
# Polynomials


class Polynomial:
    """Immutable exact polynomial: mapping exponent vector -> nonzero coefficient.

    A coefficient is an int when integral and a Fraction otherwise
    (``coefficient``), so equal polynomials have equal term maps.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponent, int | Fraction]):
        self.ctx = ctx
        n = len(ctx)
        clean = {}
        for e, c in terms.items():
            c = coefficient(c)
            if c:
                if len(e) != n:
                    raise ValueError("exponent length does not match context")
                clean[e] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def from_clean(cls, ctx: VarContext, terms: dict) -> "Polynomial":
        """The polynomial of a term map that is clean already, taken as is.

        Clean: exponents of the context's length, coefficients nonzero,
        each an int when integral, else a Fraction. Arithmetic and the
        Groebner kernel make such maps and skip ``__init__``'s pass.
        """
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        p._hash = None
        return p

    # -- basic protocol

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx, frozenset(self.terms.items())))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")

    # -- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial.from_clean(self.ctx, _integral(terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_clean(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = coefficient(other)
            if c == 0:
                return self.ctx.zero()
            return Polynomial.from_clean(
                self.ctx, _integral({e: c * v for e, v in self.terms.items()}))
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial.from_clean(self.ctx, _integral(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k by square-and-multiply: about 2 log2(k) products, not k."""
        if k < 0:
            raise ValueError("negative power")
        return _power(self, k, mul)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return self.ctx.const(other)

    # -- structure

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: Variable | str) -> int:
        i = self.ctx.position(var)
        return max((e[i] for e in self.terms), default=-1)

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * len(self.ctx), 0)

    def partial(self, var: Variable | str) -> "Polynomial":
        """Formal partial derivative."""
        i = self.ctx.position(var)
        terms: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            terms[tuple(d)] = c * e[i]
        return Polynomial.from_clean(self.ctx, _integral(terms))

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        vals = [Fraction(point[v.name]) for v in self.ctx.variables]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(vals, e):
                if k:
                    term *= x ** k
            total += term
        return total

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials (in a common target context) for variables.

        Variables absent from the assignment map to their namesake generator
        in the target context. Each term is read once into one term map: a
        variable whose image is a monomial (a rename, a constant, 0) shifts
        the exponent and scales the coefficient, and any other image is
        multiplied in from its powers, each computed once.
        """
        target = None
        for p in assignment.values():
            target = p.ctx
            break
        if target is None:
            return self
        dead = []     # positions whose image is 0
        moves = []    # (position, [(target position, exponent)], coefficient)
        spread = []   # (position, [image terms, its square, ...])
        for i, v in enumerate(self.ctx.variables):
            image = assignment.get(v.name)
            if image is None:
                moves.append((i, [(target.position(v), 1)], 1))
                continue
            if image.ctx != target:
                raise ContextMismatch(f"{image.ctx!r} vs {target!r}")
            if not image.terms:
                dead.append(i)
            elif len(image.terms) == 1:
                [(e, c)] = image.terms.items()
                moves.append((i, [(j, k) for j, k in enumerate(e) if k], c))
            else:
                spread.append((i, [image.terms]))
        m = len(target)
        out: dict = {}
        for e, c in self.terms.items():
            if any(e[i] for i in dead):
                continue
            ne = [0] * m
            for i, shift, a in moves:
                k = e[i]
                if k:
                    for j, s in shift:
                        ne[j] += s * k
                    if a != 1:
                        c *= a ** k
            part = {tuple(ne): c}
            for i, powers in spread:
                k = e[i]
                if k:
                    while len(powers) < k:
                        powers.append(_times(powers[-1], powers[0]))
                    part = _times(part, powers[k - 1])
            for pe, pc in part.items():
                out[pe] = out.get(pe, 0) + pc
        return Polynomial.from_clean(target, _integral({e: c for e, c in out.items() if c}))

    def lift(self, target: VarContext) -> "Polynomial":
        """Reinterpret in a larger context containing all current variables."""
        pos = [target.position(v.name) for v in self.ctx.variables]
        m = len(target)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * m
            for p, k in zip(pos, e):
                ne[p] = k
            terms[tuple(ne)] = c
        return Polynomial.from_clean(target, terms)

    def restrict(self, target: VarContext) -> "Polynomial":
        """Reinterpret in a smaller context; dropped variables must not occur."""
        keep = []
        for i, v in enumerate(self.ctx.variables):
            p = target._by_name.get(v.name)
            if p is not None:
                keep.append((i, p))
            elif any(e[i] for e in self.terms):
                raise ValueError(f"variable {v.name} occurs; cannot restrict")
        m = len(target)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * m
            for i, p in keep:
                ne[p] = e[i]
            terms[tuple(ne)] = c
        return Polynomial.from_clean(target, terms)

    def is_homogeneous_in(self, positions: Sequence[int]) -> bool:
        degs = {sum(e[i] for i in positions) for e in self.terms}
        return len(degs) <= 1

    def coefficient_of(self, var: Variable | str, power: int) -> "Polynomial":
        """Coefficient of var**power, as a polynomial with var zeroed out."""
        i = self.ctx.position(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                d = list(e)
                d[i] = 0
                terms[tuple(d)] = c
        return Polynomial.from_clean(self.ctx, terms)

    # -- formatting

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        """The terms in descending degrevlex order, by the packed key."""
        if not self.terms:
            return "0"
        names = self.ctx.names()
        key = _packing(DEGREVLEX, len(names), _width([self])).monomial
        chunks = []
        for e in sorted(self.terms, key=key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                chunk = str(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, chunk))
        first_sign, first = chunks[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, chunk in chunks[1:]:
            out += f" {sign} {chunk}"
        return out


def _power(p: Polynomial, k: int, times) -> Polynomial:
    """p^k for k >= 0 by square-and-multiply, each product taken by times."""
    result = p.ctx.one()
    square = p
    while k:
        if k & 1:
            result = times(result, square)
        k >>= 1
        if k:
            square = times(square, square)
    return result


def _times(a: dict, b: dict) -> dict:
    """Product of two term maps; cancelled terms stay, as zero coefficients."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# Parsing: identifiers, ^ powers, * optional between coefficient and variable.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.pairs = 0  # term pairs multiplied so far, against PRODUCT_CAP

    def _line_col(self) -> tuple:
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1)
        return line, col

    def error(self, message: str, kind: type = ParseError) -> ParseError:
        line, col = self._line_col()
        return kind(message, line, col)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def next_token(self) -> tuple:
        ch = self.peek()
        if ch == "":
            return ("end", "")
        if ch in "+-*^()/":
            self.pos += 1
            return ("op", ch)
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return ("int", self.text[start:self.pos])
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return ("name", self.text[start:self.pos])
        raise self.error(f"unexpected character {ch!r}")


def parse_polynomial(text: str, ctx: VarContext) -> Polynomial:
    """Parse ASCII polynomial text, e.g. ``y^2 - x^3 - t^2*x^2``.

    A power whose exponent, degree in one variable or bound on its terms
    is above ``EXPONENT_CAP`` raises ExponentTooLarge before it is
    computed, and so does a result of degree above it in one variable.
    So does a product, also one inside a power, that would take the term
    pairs multiplied in this call past ``PRODUCT_CAP``.
    """
    tz = _Tokenizer(text)
    value, tok = _parse_sum(tz, ctx, tz.next_token())
    if tok != ("end", ""):
        raise tz.error(f"trailing input {tok[1]!r}")
    top = _top_exponent(value)
    if top > EXPONENT_CAP:
        tz.pos = 0
        raise tz.error(f"a product has degree {top} in one variable, "
                       f"above the cap {EXPONENT_CAP}", ExponentTooLarge)
    return value


def _product(tz: _Tokenizer, a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, refused before the parse's term pairs would pass ``PRODUCT_CAP``."""
    tz.pairs += len(a.terms) * len(b.terms)
    if tz.pairs > PRODUCT_CAP:
        raise tz.error(f"products would multiply more than {PRODUCT_CAP} term pairs",
                       ExponentTooLarge)
    return a * b


def _parse_sum(tz: _Tokenizer, ctx: VarContext, tok) -> tuple:
    """Signed products, each added into one term map: linear in the summands."""
    terms: dict = {}
    while True:
        sign = 1
        while tok in (("op", "+"), ("op", "-")):
            if tok[1] == "-":
                sign = -sign
            tok = tz.next_token()
        value, tok = _parse_product(tz, ctx, tok)
        for e, c in value.terms.items():
            s = terms.get(e, 0) + sign * c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        if tok not in (("op", "+"), ("op", "-")):
            return Polynomial.from_clean(ctx, _integral(terms)), tok


def _parse_product(tz: _Tokenizer, ctx: VarContext, tok) -> tuple:
    value, tok = _parse_power(tz, ctx, tok)
    while True:
        if tok == ("op", "*"):
            tok = tz.next_token()
            rhs, tok = _parse_power(tz, ctx, tok)
            value = _product(tz, value, rhs)
        elif tok[0] in ("name", "int") or tok == ("op", "("):
            rhs, tok = _parse_power(tz, ctx, tok)
            value = _product(tz, value, rhs)
        else:
            return value, tok


def _parse_power(tz: _Tokenizer, ctx: VarContext, tok) -> tuple:
    base, tok = _parse_atom(tz, ctx, tok)
    if tok == ("op", "^"):
        tok = tz.next_token()
        if tok[0] != "int":
            raise tz.error("exponent must be a nonnegative integer")
        k = int(tok[1])
        if k > EXPONENT_CAP:
            raise tz.error(f"exponent {k} is above the cap {EXPONENT_CAP}", ExponentTooLarge)
        top = k * _top_exponent(base)
        if top > EXPONENT_CAP:
            raise tz.error(f"exponent {k} makes a power of degree {top} in one variable, "
                           f"above the cap {EXPONENT_CAP}", ExponentTooLarge)
        # base^k has at most as many terms as multisets of k of base's terms
        size = comb(k + len(base.terms) - 1, k) if base.terms else 1
        if size > EXPONENT_CAP:
            raise tz.error(f"exponent {k} on {len(base.terms)} terms allows a power of more "
                           f"than {EXPONENT_CAP} terms", ExponentTooLarge)
        tok = tz.next_token()
        return _power(base, k, lambda a, b: _product(tz, a, b)), tok
    return base, tok


def _parse_atom(tz: _Tokenizer, ctx: VarContext, tok) -> tuple:
    kind, text = tok
    if kind == "int":
        nxt = tz.next_token()
        if nxt == ("op", "/"):
            den = tz.next_token()
            if den[0] != "int" or int(den[1]) == 0:
                raise tz.error("denominator must be a nonzero integer")
            return ctx.const(Fraction(int(text), int(den[1]))), tz.next_token()
        return ctx.const(int(text)), nxt
    if kind == "name":
        if text not in ctx.names():
            raise tz.error(f"unknown variable {text!r}")
        return ctx.gen(text), tz.next_token()
    if tok == ("op", "("):
        tok = tz.next_token()
        value, tok = _parse_sum(tz, ctx, tok)
        if tok != ("op", ")"):
            raise tz.error("expected ')'")
        return value, tz.next_token()
    if tok == ("op", "-"):
        value, tok = _parse_atom(tz, ctx, tz.next_token())
        return -value, tok
    raise tz.error(f"expected term, found {text!r}")
