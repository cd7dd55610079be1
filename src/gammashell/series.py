"""Exact multivariate power series truncated to a per-variable degree box.

Coefficients are Python ints, so all ring operations are exact.  Truncation
is per variable (a box, not a total-degree simplex) because diagonal
coefficient extraction needs every monomial with all exponents <= T.

Multiplication and exact division by a unit use packed exponents: the tuple
(e_1, ..., e_v) becomes one int with a field of k = T.bit_length() + 1 bits
per variable, e_1 in the most significant field.  An in-box exponent fills
at most k - 1 bits, so the top bit of each field is a guard bit that stays
clear, and the sum of two in-box exponents never carries into the next
field.  Adding the bias, 2^(k-1) - 1 - T in every field, sets a field's
guard bit exactly when that field of the sum exceeds T, so a product term
leaves the box iff (packed + bias) & guard is nonzero.  Dually, d <= e in
every field iff subtracting d from e with all guard bits set clears none of
them.

Division is a triangular solve over the rows of the box, a row fixing every
exponent but the last.  Each row is packed into one int of T + 1 signed
B-bit fields (Kronecker substitution), so one big-int product stands for a
whole row of coefficient products; B doubles whenever a field could
overflow, so the quotient stays exact (see __truediv__).  x / y never builds
the inverse of y nor any product outside the box; invert_unit is 1 / y.
The public coeffs dict stays keyed by exponent tuples.  Ring operations
build their results without re-checking exponents, which the kernels derive
from in-box operands; the public constructor and coefficient check every
input.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .errors import DomainError, Record, _require_at_least

__all__ = ["MSeries", "dump_series"]

Exponent = tuple[int, ...]


def _check_exponent(e: Exponent, num_vars: int, truncation: int) -> None:
    if len(e) == num_vars and all(
        type(x) is int and 0 <= x <= truncation for x in e
    ):
        return
    if len(e) != num_vars:
        raise DomainError(f"exponent {e} has arity {len(e)}, expected {num_vars}")
    if not all(type(x) is int for x in e):
        raise DomainError(f"exponent {e} has a non-int entry")
    if any(x < 0 for x in e):
        raise DomainError(f"negative exponent in {e}")
    raise DomainError(f"exponent {e} exceeds truncation {truncation}")


def _packing(num_vars: int, truncation: int):
    """Guard mask and bias of the packed exponent, with pack and unpack.

    Variable 0 takes the most significant field, so increasing packed order
    is the lexicographic order of exponent tuples.
    """
    width = truncation.bit_length() + 1
    shifts = range((num_vars - 1) * width, -1, -width)
    guard = sum(1 << (s + width - 1) for s in shifts)
    bias = sum(((1 << (width - 1)) - 1 - truncation) << s for s in shifts)
    mask = (1 << width) - 1

    def pack(e: Exponent) -> int:
        q = 0
        for x in e:
            q = q << width | x
        return q

    def unpack(q: int) -> Exponent:
        return tuple(q >> s & mask for s in shifts)

    return guard, bias, pack, unpack


class MSeries(Record):
    """A truncated power series in num_vars variables with integer coefficients.

    coeffs maps exponent tuples to nonzero integers; absent means zero.
    Instances are immutable and canonical (no zero entries, all exponents
    inside the box).
    """

    _fields = ("num_vars", "truncation", "coeffs")

    def __init__(
        self, num_vars: int, truncation: int, coeffs: dict[Exponent, int] | None = None
    ) -> None:
        _require_at_least(1, num_vars=num_vars)
        _require_at_least(0, truncation=truncation)
        cleaned = {}
        for e, c in (coeffs or {}).items():
            try:
                e = tuple(e)
            except TypeError:
                raise DomainError(f"exponent {e!r} is not a tuple") from None
            _check_exponent(e, num_vars, truncation)
            if type(c) is not int:
                raise DomainError(f"coefficient {c!r} at {e} is not an int")
            if c:
                cleaned[e] = c
        super().__init__(num_vars, truncation, cleaned)

    @classmethod
    def _from_kernel(cls, num_vars: int, truncation: int, terms) -> "MSeries":
        """A ring operation's result from (exponent, coefficient) pairs.

        Zero coefficients are dropped, but the exponents are not checked
        again: every kernel derives them from in-box operands.
        """
        series = object.__new__(cls)
        vars(series).update(
            num_vars=num_vars,
            truncation=truncation,
            coeffs={e: c for e, c in terms if c},
        )
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, truncation: int) -> "MSeries":
        return cls(num_vars, truncation, {})

    @classmethod
    def const(cls, num_vars: int, truncation: int, value: int) -> "MSeries":
        return cls(num_vars, truncation, {(0,) * num_vars: value})

    @classmethod
    def monomial(
        cls, num_vars: int, truncation: int, exponent: Exponent, coeff: int = 1
    ) -> "MSeries":
        return cls(num_vars, truncation, {tuple(exponent): coeff})

    # -- ring operations ---------------------------------------------------

    def _require_compatible(self, other: "MSeries") -> None:
        if not isinstance(other, MSeries):
            raise DomainError(f"operand of type {type(other).__name__} is not a series")
        if self.num_vars != other.num_vars:
            raise DomainError("operand arity mismatch")
        if self.truncation != other.truncation:
            raise DomainError("operand truncation mismatch")

    def __add__(self, other: "MSeries") -> "MSeries":
        self._require_compatible(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MSeries._from_kernel(self.num_vars, self.truncation, out.items())

    def __neg__(self) -> "MSeries":
        return MSeries._from_kernel(
            self.num_vars, self.truncation, ((e, -c) for e, c in self.coeffs.items())
        )

    def __sub__(self, other: "MSeries") -> "MSeries":
        self._require_compatible(other)
        return self + (-other)

    def __mul__(self, other: "MSeries") -> "MSeries":
        self._require_compatible(other)
        guard, bias, pack, unpack = _packing(self.num_vars, self.truncation)
        # iterate the smaller operand outside; its side carries the bias, so
        # a sum's guard bits are set exactly when it leaves the box
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        inner = [(pack(eb), cb) for eb, cb in b.items()]
        out: dict[int, int] = {}
        for ea, ca in a.items():
            qa = pack(ea) + bias
            for qb, cb in inner:
                q = qa + qb
                if q & guard:
                    continue
                out[q] = out.get(q, 0) + ca * cb
        return MSeries._from_kernel(
            self.num_vars,
            self.truncation,
            ((unpack(q - bias), c) for q, c in out.items()),
        )

    def __pow__(self, exponent: int) -> "MSeries":
        _require_at_least(0, exponent=exponent)
        result = MSeries.const(self.num_vars, self.truncation, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def coefficient(self, exponent: Exponent) -> int:
        e = tuple(exponent)
        _check_exponent(e, self.num_vars, self.truncation)
        return self.coeffs.get(e, 0)

    def permute_vars(self, sub: tuple[int, ...]) -> "MSeries":
        """Substitute variable j by variable sub[j].

        The image of x^e is the monomial whose exponent at position sub[j]
        is e[j]; sub must be a permutation of the variable indices.
        """
        if sorted(sub) != list(range(self.num_vars)):
            raise DomainError(f"{sub} is not a permutation of the variables")
        out: dict[Exponent, int] = {}
        for e, c in self.coeffs.items():
            new_e = [0] * self.num_vars
            for j, x in enumerate(e):
                new_e[sub[j]] = x
            out[tuple(new_e)] = c
        return MSeries._from_kernel(self.num_vars, self.truncation, out.items())

    def __truediv__(self, other: "MSeries") -> "MSeries":
        """Exact quotient by a series whose constant term c0 is +-1.

        Solves (other * h)[e] = self[e] over the box in lexicographic order,
        one row at a time.  A row q fixes every field but the last, and its
        quotient row h[q] is packed into one int H[q] = sum of h[q, k] 2^(B k)
        for k <= T, with signed B-bit fields; so is every group of divisor
        terms that share a nonzero prefix dp.  For each row:
        x = packed self[q] - sum of poly_dp * H[q - dp] over the prefixes
        dp <= q (tested on packed prefixes, so no row outside the box is
        visited).  The low T + 1 fields of x, read as signed values with
        their borrows, are the right-hand sides of the row; the fields above
        T hold junk that never reaches them, since a borrow only moves
        upward.  The row is then solved in plain ints against the divisor
        terms of prefix 0:
        h[q, k] = c0 * (x_k - sum over 1 <= j <= k of other[0, j] h[q, k - j]).
        A low field of x is at most max|self| + sum|other| * max|h| in size,
        with max|h| taken over the rows solved so far.  Before each row that
        bound is checked against 2^(B - 1); when it fails, B doubles, the
        rows solved so far (exact ints, whatever B was) are packed again at
        the new width and the solve resumes at the failing row.  B starts at
        max(64, bits(sum|other|) + bits(max|self|) + 4).
        """
        self._require_compatible(other)
        v, t = self.num_vars, self.truncation
        c0 = other.coeffs.get((0,) * v, 0)
        if c0 not in (1, -1):
            raise DomainError(f"constant term {c0} is not a unit")
        guard, _, pack, _ = _packing(v - 1, t)
        # increasing packed order is lexicographic, the order rows are solved in
        prefixes = list(map(pack, itertools.product(range(t + 1), repeat=v - 1)))
        # terms grouped by packed prefix as (last field, coefficient); the divisor
        # terms of prefix 0 other than c0 act within a row, the rest between rows
        rows: dict[int, list[tuple[int, int]]] = {}
        for e, c in self.coeffs.items():
            rows.setdefault(pack(e[:-1]), []).append((e[-1], c))
        groups: dict[int, list[tuple[int, int]]] = {}
        for d, c in other.coeffs.items():
            groups.setdefault(pack(d[:-1]), []).append((d[-1], c))
        inner = sorted((k, c) for k, c in groups.pop(0) if k)
        outer = sorted(groups.items())
        max_a = max(map(abs, self.coeffs.values()), default=0)
        sum_b = sum(map(abs, other.coeffs.values()))

        h: list[list[int]] = []

        def solve(width: int) -> bool:
            """Extend h to every row, or return False once a row could overflow."""
            half = 1 << (width - 1)
            mask = (1 << width) - 1
            shifts = range(0, width * (t + 1), width)
            # adding half to every low field makes each one nonnegative, so
            # the fields read off with no borrow between them
            offset = sum(half << at for at in shifts)

            def packed(terms: Iterable[tuple[int, int]]) -> int:
                return sum(c << width * k for k, c in terms)

            polys = [(pd, packed(terms)) for pd, terms in outer]
            solved = {q: packed(enumerate(row)) for q, row in zip(prefixes, h)}
            max_h = max((abs(c) for row in h for c in row), default=0)
            for q in prefixes[len(h):]:
                if max_a + sum_b * max_h >= half:
                    return False
                top = q | guard
                x = packed(rows.get(q, ()))
                for pd, poly in polys:
                    if pd > q:
                        break
                    # dp <= prefix in every field iff no guard bit borrows,
                    # and then q - pd is the packed prefix of row q - dp
                    if (top - pd) & guard == guard:
                        x -= poly * solved[q - pd]
                x += offset
                row = [(x >> at & mask) - half for at in shifts]
                for k, s in enumerate(row):
                    for j, c in inner:
                        if j > k:
                            break
                        s -= c * row[k - j]
                    row[k] = c0 * s
                h.append(row)
                max_h = max(max_h, *map(abs, row))
                solved[q] = packed(enumerate(row))
            return True

        width = max(64, sum_b.bit_length() + max_a.bit_length() + 4)
        while not solve(width):
            width *= 2
        box = itertools.product(range(t + 1), repeat=v)
        return MSeries._from_kernel(v, t, zip(box, itertools.chain(*h)))

    def invert_unit(self) -> "MSeries":
        """Multiplicative inverse, valid when the constant term is +-1."""
        return MSeries.const(self.num_vars, self.truncation, 1) / self


# -- text form ---------------------------------------------------------------


def dump_series(series: MSeries) -> str:
    """One `e1 e2 ... : coeff` line per monomial, sorted lexicographically."""
    lines = []
    for e in sorted(series.coeffs):
        lines.append(" ".join(str(x) for x in e) + f" : {series.coeffs[e]}")
    return "\n".join(lines) + ("\n" if lines else "")
