"""Exact multivariate rational functions with restricted denominators.

Denominators are products of variable powers z_i^a and difference powers
(z_i - z_j)^b; this is the only pole structure correlation functions can
produce here.  Numerators are polynomials with rational coefficients,
stored as integers over one positive common denominator: `int_num` maps
exponent cells to ints, `int_den` shares no factor with all of them, and
`num` is the public view, cell -> exact `Fraction`.  Denominators are
cleared once, in the constructor, so arithmetic adds and multiplies ints.

Fractions are kept normalized: no z_i or (z_i - z_j) divides both
numerator and denominator, and difference factors are stored with the
canonically earlier variable first (sign absorbed into the numerator).
A factor z_i - z_j is divided out by exact long division, and its pole
order has one rule.  A correlation comes with its Wick sum
(`_term_residues`), whose top power B of z_i - z_j bounds the order: the
numerator is divided down to B exactly, and the sum's value modulo the
prime 2^61 - 1 at a fixed integer point with z_i = z_j proves, when
nonzero, that the order is B.  Everything else, a zero value included,
runs trial division: divide until a division fails.

Sums and products run in a packed ring, a private subclass
(`_Unreduced`) whose numerator cells are packed into one int each:
variable i of its variable tuple holds bits [32 i, 32 i + 32), so a
monomial product is one int addition (`_poly_mul`) and no tuple is built
or hashed per term.  A field holds an exponent in [0, 2^32); entering
the ring (`_packed_ring`) refuses with ValueError any operands whose
sums and products could reach 2^32, so no field ever carries into the
next.  The ring never normalizes.  The public `+` and `*` pack both
operands, compute one ring sum or product, unpack its cells once
(`struct` "<nI") and normalize.  `deferred_pfaffian`, the Pfaffian of a
kernel of rational functions, runs its whole memo in the ring and
unpacks and normalizes once, on the value it returns.

Regional expansion (`expand_region`; `expand_terms` for terms over one
denominator) turns a rational function into the exact Laurent table of its
iterated-series expansion in a region |z_{o1}| > |z_{o2}| > ..., certified
on a requested exponent box; the walk (`region_cells`) stops at the box's
lower edges as well as its upper.
"""
from __future__ import annotations

import struct
from fractions import Fraction
from itertools import repeat
from math import gcd, inf, lcm, prod
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .laurent import Box, LaurentPoly
from .pfaffian import pfaffian
from .scalars import add_into, add_term, binom, clear_denominators, format_rational

Cell = Tuple[int, ...]
Poly = Dict[Cell, int]  # integer coefficients, zeros absent
Packed = Dict[int, int]  # the same, each cell packed into one int (`_pack`)

_PRIME = (1 << 61) - 1
_FIELD = 32  # bits per exponent in a packed cell
_LIMIT = 1 << _FIELD


def _var_key(name: str):
    return (len(name), name)


def _pack(cell: Sequence[int], slots: Sequence[int]) -> int:
    """One int holding exponent cell[k] in bits [32 s, 32 s + 32) for
    s = slots[k]; each exponent must lie in [0, 2^32)."""
    return sum(e << _FIELD * s for e, s in zip(cell, slots))


def _unpack(num: Packed, nvars: int) -> Poly:
    """A packed numerator over `nvars` variables, its cells as tuples."""
    unpack, size = struct.Struct(f"<{nvars}I").unpack, 4 * nvars
    return {unpack(key.to_bytes(size, "little")): c for key, c in num.items()}


def _poly_mul(a: Packed, b: Packed) -> Packed:
    """Product of packed numerators: a monomial product is one int addition.
    The outer loop runs over `b`, so callers pass the smaller operand
    there; a one-cell `b` only shifts and scales `a`."""
    if len(b) == 1:
        ((shift, k),) = b.items()
        return {c + shift: v * k for c, v in a.items()}
    out: Packed = {}
    # inline, not scalars.add_term: zeros are dropped once, after the convolution
    get = out.get
    for c2, v2 in b.items():
        for c1, v1 in a.items():
            cell = c1 + c2
            out[cell] = get(cell, 0) + v1 * v2
    return {cell: c for cell, c in out.items() if c}


def _poly_shift(a: Poly, idx: int, amount: int) -> Poly:
    out = {}
    for cell, c in a.items():
        cell = list(cell)
        cell[idx] += amount
        out[tuple(cell)] = c
    return out


def _reduced(num: Poly, den: int) -> Tuple[Poly, int]:
    """Cancel the common factor of the coefficients and their denominator."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return {cell: c // g for cell, c in num.items()}, den // g
    return num, den


def _diff_poly(i: int, j: int, power: int) -> Packed:
    """(z_i - z_j)^power by the binomial theorem, power >= 0, packed."""
    return {_pack((power - t, t), (i, j)): -binom(power, t) if t & 1 else binom(power, t) for t in range(power + 1)}


def _proof_value(idx: int) -> int:
    """Coordinate `idx` of the fixed point where divisibility is tested."""
    return (idx + 1) * 0x9E3779B97F4A7C15 % _PRIME


def _term_residues(terms, differences) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Pole orders and first residues (see `_normalize`) of a sum of terms
    c / prod (a - b)^b: `terms` maps exponent tuples over `differences`
    (either order per pair) to c.  For each canonical pair (x, y), (B, r):
    B is its top exponent over the terms, and r is the value mod 2^61 - 1,
    at the point of `_proof_value` over the sorted variables with z_y set
    to z_x, of sum c prod (a - b)^(B_ab - b) over every pair's top B_ab.
    That sum is a nonzero constant times the numerator over
    prod (a - b)^B_ab, since a difference taken in the other order only
    flips the constant's sign; at that point only the terms with
    b(x, y) = B survive.
    """
    keys = [(a, b) if _var_key(a) < _var_key(b) else (b, a) for a, b in differences]
    tops = [max(col) for col in zip(*terms)]
    gapped = [(c, [top - e for top, e in zip(tops, exps)]) for exps, c in terms.items()]
    names = sorted({v for pair in differences for v in pair}, key=_var_key)
    point = {v: _proof_value(k) for k, v in enumerate(names)}
    out = {}
    for s, ((x, y), top) in enumerate(zip(keys, tops)):
        at = {**point, y: point[x]}
        diffs = [at[a] - at[b] for a, b in differences]
        r = sum(c * prod(map(pow, diffs, gaps, repeat(_PRIME))) for c, gaps in gapped if not gaps[s]) % _PRIME
        out[x, y] = top, r
    return out


def _divide_by_diff(a: Poly, i: int, j: int) -> Poly | None:
    """Exact quotient a / (z_i - z_j), or None when not divisible.

    z_i - z_j is monic in z_i, so the quotient of an integer polynomial
    has integer coefficients.
    """
    if not a:
        return None
    # Long division in z_i: with a = sum_k f_k z_i^k, the quotient q
    # satisfies q_{k-1} = f_k + z_j * q_k, remainder f_0 + z_j * q_0.
    by_deg: Dict[int, Poly] = {}
    for cell, c in a.items():
        k = cell[i]
        rest = list(cell)
        rest[i] = 0
        by_deg.setdefault(k, {})[tuple(rest)] = c
    top = max(by_deg)
    quotient: Poly = {}
    carry: Poly = {}
    for k in range(top, 0, -1):
        layer = add_into(by_deg.get(k, {}), carry)
        for cell, c in layer.items():
            cell2 = list(cell)
            cell2[i] += k - 1
            quotient[tuple(cell2)] = c
        carry = _poly_shift(layer, j, 1)
    remainder = add_into(by_deg.get(0, {}), carry)
    if remainder:
        return None
    return quotient


def _canonical_diffs(powers: Mapping[Tuple[str, str], int]) -> Tuple[Dict[Tuple[str, str], int], int]:
    """(den_diff, sign): the difference powers keyed by canonically ordered
    pairs, zero powers dropped, and the sign that the swapped pairs put on
    the numerator.  A negative power or a pair (x, x) is a ValueError."""
    den_diff: Dict[Tuple[str, str], int] = {}
    sign = 1
    for (x, y), b in powers.items():
        if x == y:
            raise ValueError("difference factor needs distinct variables")
        if b < 0:
            raise ValueError(f"power of ({x} - {y}) must be nonnegative")
        key = (x, y) if _var_key(x) < _var_key(y) else (y, x)
        if key != (x, y) and b & 1:
            sign = -sign
        if b:
            den_diff[key] = den_diff.get(key, 0) + b
    return den_diff, sign


class RationalFunction:
    """num / (prod z_i^a_i * prod (z_i - z_j)^b_ij), exact and normalized.

    The numerator is held as `int_num / int_den`; `num` is its `Fraction`
    view.
    """

    __slots__ = ("vars", "int_num", "int_den", "den_pow", "den_diff")

    def __init__(self, variables: Iterable[str], num: Mapping, den_pow=None, den_diff=None):
        """num over prod z^a (den_pow) and prod (x - y)^b (den_diff); the
        powers must be nonnegative, and a pair (x, y) out of canonical order
        is stored as (y, x) with its sign absorbed into the numerator."""
        self.vars = tuple(variables)
        self.den_pow: Dict[str, int] = {}
        for v, a in (den_pow or {}).items():
            if a < 0:
                raise ValueError(f"power of {v} must be nonnegative")
            if a:
                self.den_pow[v] = a
        self.den_diff, sign = _canonical_diffs(den_diff or {})
        self.int_num, self.int_den = clear_denominators({tuple(c): sign * Fraction(v) for c, v in num.items() if v})
        self._normalize()

    @property
    def num(self) -> Dict[Cell, Fraction]:
        """Numerator coefficients as exact Fractions (a fresh dict)."""
        den = self.int_den
        return {cell: Fraction(c, den) for cell, c in self.int_num.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, variables, int_num: Poly, int_den: int, den_pow, den_diff) -> "RationalFunction":
        """Wrap integer data that is already in normal form."""
        rf = object.__new__(cls)
        rf.vars = variables
        rf.int_num = int_num
        rf.int_den = int_den
        rf.den_pow = den_pow
        rf.den_diff = den_diff
        return rf

    @classmethod
    def _from_ints(cls, variables, int_num: Poly, int_den: int, den_pow, den_diff, poles=None) -> "RationalFunction":
        rf = cls._raw(variables, int_num, int_den, den_pow, den_diff)
        rf._normalize(poles)
        return rf

    @classmethod
    def from_scalar(cls, value, variables=()) -> "RationalFunction":
        variables = tuple(sorted(variables, key=_var_key))
        value = Fraction(value)
        num = {(0,) * len(variables): value.numerator} if value else {}
        return cls._raw(variables, num, value.denominator, {}, {})

    @classmethod
    def monomial(cls, variables, exps: Dict[str, int], value=1) -> "RationalFunction":
        """value * prod z^e with e of either sign (negative goes downstairs)."""
        variables = tuple(sorted(variables, key=_var_key))
        value = Fraction(value)
        cell = [0] * len(variables)
        den_pow = {}
        for v, e in exps.items():
            i = variables.index(v)
            if e >= 0:
                cell[i] = e
            else:
                den_pow[v] = -e
        return cls._from_ints(variables, {tuple(cell): value.numerator}, value.denominator, den_pow, {})

    @classmethod
    def diff_inverse(cls, x: str, y: str, power: int, value=1) -> "RationalFunction":
        """value / (x - y)^power with the canonical-order sign absorbed."""
        return cls.diff_product({(x, y): power}, value)

    @classmethod
    def diff_product(cls, powers: Mapping[Tuple[str, str], int], value=1) -> "RationalFunction":
        """value / prod (x - y)^b over the pairs of `powers`, with the
        canonical-order signs absorbed."""
        variables = tuple(sorted({v for pair in powers for v in pair}, key=_var_key))
        den_diff, sign = _canonical_diffs(powers)
        value = sign * Fraction(value)
        if not value:
            return cls._raw(variables, {}, 1, {}, {})
        # a constant numerator shares no factor with the difference powers
        return cls._raw(variables, {(0,) * len(variables): value.numerator}, value.denominator, {}, den_diff)

    # -- normalization --------------------------------------------------

    def _normalize(self, poles: Mapping[Tuple[str, str], Tuple[int, int]] | None = None):
        """Cancel common factors.  `poles` may map each pair (x, y) of
        `den_diff` to (B, r) from the function's Wick sum
        (`_term_residues`): B bounds the order of x - y, so the numerator is
        divided exactly down to it, and a nonzero r proves that the order is
        B.  A pair with r = 0, or with no Wick sum, runs trial division:
        divide until a division fails."""
        num = self.int_num
        if not num:
            self.int_den = 1
            self.den_pow = {}
            self.den_diff = {}
            return
        num, self.int_den = _reduced(num, self.int_den)
        den_pow = {}
        for v, a in self.den_pow.items():
            if a > 0:
                idx = self.vars.index(v)
                k = min(a, min(cell[idx] for cell in num))
                if k:
                    num = _poly_shift(num, idx, -k)
                    a -= k
            if a:
                den_pow[v] = a
        den_diff = {}
        for (x, y), b in self.den_diff.items():
            if b <= 0:
                continue
            i, j = self.vars.index(x), self.vars.index(y)
            top, r = poles[x, y] if poles else (b, 0)
            while b > top:  # exact: every Wick term has order at most B
                num = _divide_by_diff(num, i, j)
                b -= 1
            while b and not r:
                q = _divide_by_diff(num, i, j)
                if q is None:
                    break
                num = q
                b -= 1
            if b:
                den_diff[(x, y)] = b
        self.int_num = num
        self.den_pow = den_pow
        self.den_diff = den_diff

    # -- variable plumbing ----------------------------------------------

    @staticmethod
    def _merge_vars(a: "RationalFunction", b: "RationalFunction") -> Tuple[str, ...]:
        if a.vars == b.vars:
            return a.vars
        return tuple(sorted(set(a.vars) | set(b.vars), key=_var_key))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            other = RationalFunction.from_scalar(other)
        a, b = _packed_ring([self, other], self._merge_vars(self, other))
        return (a + b)._unpacked()

    def __neg__(self):
        num = {cell: -c for cell, c in self.int_num.items()}
        return RationalFunction._raw(self.vars, num, self.int_den, dict(self.den_pow), dict(self.den_diff))

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.from_scalar(other)
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return self.scale(other)
        a, b = _packed_ring([self, other], self._merge_vars(self, other))
        return (a * b)._unpacked()

    def scale(self, value) -> "RationalFunction":
        """Multiply by a scalar; a nonzero scalar keeps the normal form."""
        value = Fraction(value)
        if not value:
            return RationalFunction._raw(self.vars, {}, 1, {}, {})
        p = value.numerator
        num, den = _reduced({cell: c * p for cell, c in self.int_num.items()}, self.int_den * value.denominator)
        return RationalFunction._raw(self.vars, num, den, dict(self.den_pow), dict(self.den_diff))

    def is_zero(self) -> bool:
        return not self.int_num

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.from_scalar(other, self.vars)
        return (self - other).is_zero()

    # -- specialization ---------------------------------------------------

    def substitute(self, mapping: Dict[str, str]) -> "RationalFunction":
        """Rename variables (merging allowed) before any re-normalization.

        A difference factor whose two variables map to the same name would
        vanish identically; that is rejected rather than divided by zero.
        Nothing in the library renames variables; this is an oracle route,
        whose merged-variable results tests feed back through the arithmetic.
        """
        new_names = [mapping.get(v, v) for v in self.vars]
        variables = tuple(sorted(set(new_names), key=_var_key))
        pos = [variables.index(n) for n in new_names]
        num: Poly = {}
        for cell, c in self.int_num.items():
            big = [0] * len(variables)
            for p, e in zip(pos, cell):
                big[p] += e
            add_term(num, tuple(big), c)
        den_pow: Dict[str, int] = {}
        for v, a in self.den_pow.items():
            nv = mapping.get(v, v)
            den_pow[nv] = den_pow.get(nv, 0) + a
        den_diff: Dict[Tuple[str, str], int] = {}
        sign = 1
        for (x, y), b in self.den_diff.items():
            nx, ny = mapping.get(x, x), mapping.get(y, y)
            if nx == ny:
                raise ValueError(f"substitution collapses difference factor ({x} - {y})")
            key = tuple(sorted((nx, ny), key=_var_key))
            if (nx, ny) != key:
                sign *= (-1) ** b
            den_diff[key] = den_diff.get(key, 0) + b
        num = {cell: sign * c for cell, c in num.items()}
        return RationalFunction._from_ints(variables, num, self.int_den, den_pow, den_diff)

    # -- regional expansion ------------------------------------------------

    def expand_region(self, order: Iterable[str], box_intervals) -> LaurentPoly:
        """Exact Laurent table in the region |o1| > |o2| > ..., on a box.

        `order` must cover all variables of the function; `box_intervals`
        gives one (lo, hi) interval per order entry.  The result is exact
        on that box and contains no cells outside it.
        """
        return expand_terms([self], self.int_den, order, box_intervals)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        if not self.int_num:
            return "0"
        terms = []
        for cell, c in sorted(self.num.items(), reverse=True):
            mono = " ".join(f"{v}^{e}" if e != 1 else v for v, e in zip(self.vars, cell) if e)
            coeff = format_rational(c)
            if mono:
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{coeff} {mono}")
            else:
                terms.append(coeff)
        num = " + ".join(terms).replace("+ -", "- ")
        dens = []
        for v in self.vars:
            a = self.den_pow.get(v, 0)
            if a:
                dens.append(f"{v}^{a}" if a > 1 else v)
        for (x, y), b in sorted(self.den_diff.items()):
            dens.append(f"({x} - {y})" + (f"^{b}" if b > 1 else ""))
        if not dens:
            return f"({num})"
        return f"({num}) / " + "*".join(dens)

    def __repr__(self):
        return self.render()


def _packed_ring(rfs: Sequence[RationalFunction], variables: Tuple[str, ...]) -> List["_Unreduced"]:
    """`rfs` as elements of the packed ring over `variables`, a superset of
    their variables.

    Refuses with ValueError unless every exponent that sums and products of
    them can reach is below 2^32, so that no packed field ever carries into
    the next.  Per variable, the top numerator exponent plus the degree of
    the denominator in it, summed over `rfs`, bounds them all: a product
    adds numerator exponents, and a sum lifts by a quotient of denominators.
    """
    slot = {v: s for s, v in enumerate(variables)}
    bound = [0] * len(variables)
    ring = []
    for rf in rfs:
        slots = [slot[v] for v in rf.vars]
        for s, top in zip(slots, map(max, zip(*rf.int_num))):
            bound[s] += top
        for v, a in rf.den_pow.items():
            bound[slot[v]] += a
        for (x, y), b in rf.den_diff.items():
            bound[slot[x]] += b
            bound[slot[y]] += b
        num = {_pack(cell, slots): c for cell, c in rf.int_num.items()}
        ring.append(_Unreduced._raw(variables, num, rf.int_den, rf.den_pow, rf.den_diff))
    if max(bound, default=0) >= _LIMIT:
        raise ValueError(f"an exponent could reach 2^{_FIELD}, beyond a packed numerator field")
    return ring


def _int_sum(a, b):
    """(num, den, den_pow, den_diff) of a + b, not normalized: both packed
    operands lifted to the larger exponent of every factor."""
    p1, p2, d1, d2 = a.den_pow, b.den_pow, a.den_diff, b.den_diff
    den_pow = {v: max(p1.get(v, 0), p2.get(v, 0)) for v in set(p1) | set(p2)}
    den_diff = {k: max(d1.get(k, 0), d2.get(k, 0)) for k in set(d1) | set(d2)}
    den = lcm(a.int_den, b.int_den)
    num = add_into(a._lifted(den, den_pow, den_diff), b._lifted(den, den_pow, den_diff))
    return num, den, den_pow, den_diff


def _int_product(a, b):
    """(num, den, den_pow, den_diff) of a * b, not normalized: the exponents
    add.  The smaller numerator goes second into `_poly_mul`: a Pfaffian
    kernel entry is one cell, which only shifts and scales the other."""
    p1, p2, d1, d2 = a.den_pow, b.den_pow, a.den_diff, b.den_diff
    den_pow = {v: p1.get(v, 0) + p2.get(v, 0) for v in set(p1) | set(p2)}
    den_diff = {k: d1.get(k, 0) + d2.get(k, 0) for k in set(d1) | set(d2)}
    small, big = sorted((a.int_num, b.int_num), key=len)
    return _poly_mul(big, small), a.int_den * b.int_den, den_pow, den_diff


class _Unreduced(RationalFunction):
    """An element of the packed ring that the public operators and
    `deferred_pfaffian` compute in: a RationalFunction whose numerator is
    keyed by packed cells (`_pack`) over one variable tuple shared by every
    element of the ring, and which is never normalized.  A sum lifts both
    operands to the larger exponents, a product adds them (`_int_sum`,
    `_int_product`); `_unpacked` gives the normal form.  Elements come from
    `_packed_ring`, whose guard keeps every exponent below 2^32.
    """

    __slots__ = ()

    def __add__(self, other):
        return _Unreduced._raw(self.vars, *_int_sum(self, other))

    def __mul__(self, other):
        return _Unreduced._raw(self.vars, *_int_product(self, other))

    def __neg__(self):
        num = {cell: -c for cell, c in self.int_num.items()}
        return _Unreduced._raw(self.vars, num, self.int_den, self.den_pow, self.den_diff)

    def _lifted(self, den: int, den_pow, den_diff) -> Packed:
        """The packed numerator over a common denominator that this one divides."""
        slot = self.vars.index
        shift = sum((a - self.den_pow.get(v, 0)) << _FIELD * slot(v) for v, a in den_pow.items())
        num = _poly_mul(self.int_num, {shift: den // self.int_den})
        for (x, y), b in den_diff.items():
            extra = b - self.den_diff.get((x, y), 0)
            if extra:
                num = _poly_mul(num, _diff_poly(slot(x), slot(y), extra))
        return num

    def _unpacked(self, keep: Sequence[int] | None = None, poles=None) -> RationalFunction:
        """The normal form, over the variables at slots `keep` (all by
        default; the others must not occur in the numerator): the cells are
        unpacked once and normalized once (`poles`: see `_normalize`)."""
        num = _unpack(self.int_num, len(self.vars))
        variables = self.vars
        if keep is not None and len(keep) < len(variables):
            num = {tuple(cell[s] for s in keep): c for cell, c in num.items()}
            variables = tuple(variables[s] for s in keep)
        return RationalFunction._from_ints(variables, num, self.int_den, self.den_pow, self.den_diff, poles)


def deferred_pfaffian(kernel: Mapping[int, Mapping[int, RationalFunction]], mask: int, terms=None) -> RationalFunction:
    """pfaffian(kernel, [mask], RationalFunction.from_scalar(1))[mask], equal
    down to `vars` and the rendered form, with one normalization in all.

    The memo runs over `_Unreduced`, every entry embedded once over the
    union of the entries' variables with its numerator cells packed:
    variable i holds the 32-bit field [32 i, 32 i + 32) of one int, so a
    monomial product is one int addition and a lift by a difference power a
    packed convolution.  Before any Pfaffian work, `_packed_ring` adds up,
    per variable, every entry's top numerator exponent and denominator
    degree, and refuses the kernel with ValueError when that reaches 2^32,
    so no field ever carries.  The value is unpacked once (`struct` "<nI")
    and normalized once by `_normalize`.  When `terms`, the same Pfaffian
    as a sum of difference-power terms (`_term_residues`), is given, the
    pole orders come from it; without it every pair runs trial division.
    It keeps the variables of its difference factors: those of the plain
    route when every entry is w / (z_i - z_j)^k with w != 0 and k >= 1, as
    `wick.correlation` builds them, since products add difference
    exponents and sums lift to the larger.
    """
    entries = [rf for row in kernel.values() for rf in row.values()]
    variables = tuple(sorted({v for rf in entries for v in rf.vars}, key=_var_key))
    one, *packed = _packed_ring([RationalFunction.from_scalar(1), *entries], variables)
    elements = iter(packed)
    ring = {p: {q: next(elements) for q in row} for p, row in kernel.items()}
    value = pfaffian(ring, [mask], one)[mask]
    used = {v for pair in value.den_diff for v in pair}
    keep = [s for s, v in enumerate(variables) if v in used]
    return value._unpacked(keep, terms and _term_residues(*terms))


def expand_terms(terms: Sequence[RationalFunction], den: int, order: Iterable[str], box_intervals) -> LaurentPoly:
    """Exact Laurent table of the sum of `terms`, their int numerators read
    over the one denominator `den`, in the region |o1| > |o2| > ... on a box:
    one `region_cells` walk per term, capped and floored by the box, and one
    division.  `order` must cover the variables of every term."""
    order = tuple(order)
    if {v for rf in terms for v in rf.vars} - set(order):
        raise ValueError("region order must cover all variables")
    box = Box(order, box_intervals)
    npos = {v: i for i, v in enumerate(order)}
    caps, floors = [hi for _, hi in box.intervals], [lo for lo, _ in box.intervals]
    table: Dict[Cell, int] = {}
    for rf in terms:
        add_into(table, region_cells(rf, npos, caps, floors=floors))
    return LaurentPoly(order, {cell: Fraction(c, den) for cell, c in table.items()})


def region_cells(
    rf: RationalFunction,
    order_index: Mapping[str, int],
    caps: Sequence[int],
    scale: int = 1,
    floors: Sequence[int] | None = None,
) -> Dict[Cell, int]:
    """Laurent cells of `scale * rf.int_num` over rf's denominator, expanded
    in the region |order[0]| > |order[1]| > ..., with every exponent at or
    below its cap and, when `floors` is given, at or above its floor; the
    values are ints over `rf.int_den`.

    Each difference factor is a geometric series in its inner (later)
    variable, (x - y)^-b = sum_k C(b+k-1, k) x^(-b-k) y^k.  Inner degrees
    are chosen from the last region variable backwards: when a position is
    reached, every factor that lowers it is already chosen, so its budget
    bounds the choices there exactly and every leaf is within the caps.
    A position that is no difference factor's inner variable may have the
    cap `math.inf`, which keeps every cell.  A position's value is checked
    against its floor as soon as it is final; while a factor lowers a
    position that no factor raises, its series stops at that floor.
    """
    nv = len(caps)
    floors = floors or [-inf] * nv
    members = [[] for _ in range(nv)]  # factors (outer, power, sign) by inner position
    for (x, y), b in sorted(rf.den_diff.items()):
        px, py = order_index[x], order_index[y]
        if px < py:
            members[py].append((px, b, 1))
        else:
            # (x - y)^-b = (-1)^b (y - x)^-b, expanded with y as the outer variable
            members[px].append((py, b, -1 if b & 1 else 1))
    # lowering a position that no factor raises ends at its floor
    stops = [-inf if members[p] else floors[p] for p in range(nv)]
    base = [0] * nv
    for v, a in rf.den_pow.items():
        base[order_index[v]] -= a
    pos_of = [order_index[v] for v in rf.vars]
    out: Dict[Cell, int] = {}
    cell = [0] * nv

    def walk(pos, value):
        while pos >= 0 and not members[pos]:
            if not floors[pos] <= cell[pos] <= caps[pos]:
                return
            pos -= 1
        if pos < 0:
            key = tuple(cell)
            out[key] = out.get(key, 0) + value  # inline: the hottest write; zeros go at the end
            return
        if cell[pos] <= caps[pos]:
            assign(members[pos], 0, pos, caps[pos] - cell[pos], value)

    def assign(group, mi, pos, remaining, value):
        if mi == len(group):
            if cell[pos] >= floors[pos]:
                walk(pos - 1, value)
            return
        outer, b, sign = group[mi]
        stop = stops[outer]
        cell[outer] -= b
        k = 0
        while k <= remaining and cell[outer] >= stop:
            assign(group, mi + 1, pos, remaining - k, value * sign * binom(b + k - 1, k))
            cell[pos] += 1
            cell[outer] -= 1
            k += 1
        cell[pos] -= k
        cell[outer] += b + k

    for mono, c in rf.int_num.items():
        cell[:] = base
        for p, e in zip(pos_of, mono):
            cell[p] += e
        walk(nv - 1, c * scale)
    return {key: c for key, c in out.items() if c}


def f_mn(m: int, n: int, x: str, y: str) -> RationalFunction:
    """Divided-derivative contraction kernel C(-n-1, m) / (x - y)^(m+n+1)."""
    if m < 0 or n < 0:
        raise ValueError("derivative orders must be nonnegative")
    return RationalFunction.diff_inverse(x, y, m + n + 1, binom(-n - 1, m))
