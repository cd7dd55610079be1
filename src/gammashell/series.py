"""Exact multivariate power series truncated to a per-variable degree box.

Coefficients are Python ints, so all ring operations are exact.  Truncation
is per variable (a box, not a total-degree simplex) because diagonal
coefficient extraction needs every monomial with all exponents <= T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DomainError

Exponent = tuple[int, ...]


def _check_exponent(e: Exponent, num_vars: int, truncation: int) -> None:
    if len(e) != num_vars:
        raise DomainError(f"exponent {e} has arity {len(e)}, expected {num_vars}")
    if any(x < 0 for x in e):
        raise DomainError(f"negative exponent in {e}")
    if any(x > truncation for x in e):
        raise DomainError(f"exponent {e} exceeds truncation {truncation}")


@dataclass(frozen=True)
class MSeries:
    """A truncated power series in num_vars variables with integer coefficients.

    coeffs maps exponent tuples to nonzero integers; absent means zero.
    Instances are immutable and canonical (no zero entries, all exponents
    inside the box).
    """

    num_vars: int
    truncation: int
    coeffs: dict[Exponent, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise DomainError("num_vars must be positive")
        if self.truncation < 0:
            raise DomainError("truncation must be nonnegative")
        cleaned = {}
        for e, c in self.coeffs.items():
            e = tuple(e)
            _check_exponent(e, self.num_vars, self.truncation)
            if c:
                cleaned[e] = c
        object.__setattr__(self, "coeffs", cleaned)

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
        if self.num_vars != other.num_vars:
            raise DomainError("operand arity mismatch")
        if self.truncation != other.truncation:
            raise DomainError("operand truncation mismatch")

    def __add__(self, other: "MSeries") -> "MSeries":
        self._require_compatible(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MSeries(self.num_vars, self.truncation, out)

    def __neg__(self) -> "MSeries":
        return MSeries(
            self.num_vars, self.truncation, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + (-other)

    def __mul__(self, other: "MSeries") -> "MSeries":
        self._require_compatible(other)
        t = self.truncation
        out: dict[Exponent, int] = {}
        # iterate the smaller operand outside for fewer dict rebuilds
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(x > t for x in e):
                    continue
                out[e] = out.get(e, 0) + ca * cb
        return MSeries(self.num_vars, self.truncation, out)

    def __pow__(self, exponent: int) -> "MSeries":
        if exponent < 0:
            raise DomainError("negative power")
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
        return MSeries(self.num_vars, self.truncation, out)

    def invert_unit(self) -> "MSeries":
        """Multiplicative inverse, valid when the constant term is +-1.

        Solves (self * h)[e] = [e == 0] degree by degree:
        h[e] = -c0 * sum of self[d] * h[e - d] over nonconstant terms d <= e.
        """
        v, t = self.num_vars, self.truncation
        c0 = self.coeffs.get((0,) * v, 0)
        if c0 not in (1, -1):
            raise DomainError(f"constant term {c0} is not a unit")
        tail = [(d, c) for d, c in self.coeffs.items() if any(d)]
        inv: dict[Exponent, int] = {(0,) * v: c0}
        exponents = sorted(
            itertools.product(range(t + 1), repeat=v), key=lambda e: (sum(e), e)
        )
        for e in exponents:
            if not any(e):
                continue
            s = 0
            for d, c in tail:
                if all(x <= y for x, y in zip(d, e)):
                    prev = inv.get(tuple(y - x for x, y in zip(d, e)), 0)
                    if prev:
                        s += c * prev
            if s:
                inv[e] = -c0 * s
        return MSeries(v, t, inv)

    def truncate(self, truncation: int) -> "MSeries":
        """Restrict to a smaller box; enlarging would fabricate coefficients."""
        if truncation > self.truncation:
            raise DomainError(
                f"cannot raise truncation {self.truncation} to {truncation}"
            )
        kept = {
            e: c
            for e, c in self.coeffs.items()
            if all(x <= truncation for x in e)
        }
        return MSeries(self.num_vars, truncation, kept)


# -- text form ---------------------------------------------------------------


def dump_series(series: MSeries) -> str:
    """One `e1 e2 ... : coeff` line per monomial, sorted lexicographically."""
    lines = []
    for e in sorted(series.coeffs):
        lines.append(" ".join(str(x) for x in e) + f" : {series.coeffs[e]}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_series(text: str, num_vars: int, truncation: int) -> MSeries:
    """Inverse of dump_series for the given box."""
    coeffs: dict[Exponent, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            left, right = line.split(":")
            e = tuple(int(x) for x in left.split())
            coeffs[e] = int(right)
        except ValueError as exc:
            raise DomainError(f"bad series line {lineno}: {raw!r}") from exc
    return MSeries(num_vars, truncation, coeffs)
