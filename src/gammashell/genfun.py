"""Generating functions tying facet counts to the binomial identities.

The key objects are the series P (one column of a shift-vector collection),
its powers g_r, and the rational series xyz / ((1-x)(1-y)(1-z) + xyz) whose
diagonal reproduces the alternating sum of cubes of binomials.  series_P and
series_XY always build their two natural constructions and compare them
before returning; series_g_r and the alternating build of XY use the closed
form of P alone.  The diagonal alignment offset is determined empirically
against the signed facet counts over the fixed offsets DELTAS, rather
than assumed.
"""

from __future__ import annotations

from .complexes import ComplexParams, f_vector_formula, reduced_euler_characteristic
from .errors import DomainError, Record, VerificationError, _require_at_least, _require_ints
from .facets import _signed_chain_count
from .identities import dixon_lhs, dixon_rhs
from .series import MSeries

__all__ = [
    "AlignmentReport",
    "alignment_check",
    "alternating_homology_count",
    "det_I_minus_X",
    "dixon_product_coefficient",
    "master_theorem_check",
    "master_theorem_inverse_coefficient",
    "master_theorem_product_coefficient",
    "matrix_A",
    "matrix_B",
    "series_P",
    "series_XY",
    "series_g_r",
]

IntMatrix = tuple[tuple[int, ...], ...]

# the diagonal offsets that alignment_check scans; the scan pins one of them
DELTAS = (0, 1, 2, 3)


def _variable(j: int, m: int, T: int, coeff: int = 1) -> MSeries:
    """coeff * x_j in the m-variable box truncated at T."""
    return MSeries.monomial(m, T, tuple(int(v == j) for v in range(m)), coeff)


def _one_minus(var: int, num_vars: int, truncation: int) -> MSeries:
    return MSeries.const(num_vars, truncation, 1) - _variable(var, num_vars, truncation)


def _geometric_denominator(truncation: int) -> MSeries:
    """(1-x)(1-y)(1-z) as a polynomial in the 3-variable box."""
    out = MSeries.const(3, truncation, 1)
    for var in range(3):
        out = out * _one_minus(var, 3, truncation)
    return out


def _require_dual_equal(name: str, first: MSeries, second: MSeries) -> None:
    if first.coeffs != second.coeffs:
        diffs = [
            e
            for e in set(first.coeffs) | set(second.coeffs)
            if first.coeffs.get(e, 0) != second.coeffs.get(e, 0)
        ]
        raise VerificationError(
            f"{name}: dual constructions disagree at {sorted(diffs)[:5]} ..."
        )


def _closed_P(T: int) -> MSeries:
    """P by its closed form alone, for the builds that consume it."""
    one = MSeries.const(3, T, 1)
    xyz = MSeries.monomial(3, T, (1, 1, 1))
    return xyz * ((one - xyz) / _geometric_denominator(T) - one)


def series_P(T: int) -> MSeries:
    """The column series P = xyz((1-xyz)/((1-x)(1-y)(1-z)) - 1).

    Also the sum of the six permuted corner series
    f = x y^2 z^2 / ((1-y)(1-z)) and h = x y z^2 / (1-z); both builds are
    compared coefficient by coefficient before returning.
    """
    _require_at_least(2, T=T)
    closed = _closed_P(T)
    f = MSeries.monomial(3, T, (1, 2, 2)) / (
        _one_minus(1, 3, T) * _one_minus(2, 3, T)
    )
    h = MSeries.monomial(3, T, (1, 1, 2)) / _one_minus(2, 3, T)
    permuted = (
        f
        + f.permute_vars((1, 0, 2))
        + f.permute_vars((2, 1, 0))
        + h
        + h.permute_vars((0, 2, 1))
        + h.permute_vars((2, 1, 0))
    )
    _require_dual_equal("series_P", closed, permuted)
    return closed


def series_g_r(r: int, T: int) -> MSeries:
    """P^r; its coefficients count r-column shift-vector collections."""
    _require_at_least(1, r=r)
    _require_at_least(2 * r, T=T)
    return _closed_P(T) ** r


def series_XY(T: int) -> MSeries:
    """xyz / ((1-x)(1-y)(1-z) + xyz).

    The alternating-sum build (P + xyz) * (1 + P)^{-1} realizes
    sum over r >= 1 of (-1)^{r-1} (P^r + xyz P^{r-1}); it is compared
    coefficient by coefficient against the closed rational form before
    returning.
    """
    _require_at_least(1, T=T)
    one = MSeries.const(3, T, 1)
    xyz = MSeries.monomial(3, T, (1, 1, 1))
    closed = xyz / (_geometric_denominator(T) + xyz)
    p = _closed_P(T)
    alternating = (p + xyz) / (one + p)
    _require_dual_equal("series_XY", closed, alternating)
    return closed


# -- determinant coefficient identities --------------------------------------


def _validate_matrix(matrix: IntMatrix) -> int:
    m = len(matrix)
    if m == 0 or any(len(row) != m for row in matrix):
        raise DomainError("matrix must be square and nonempty")
    return m


def matrix_A() -> IntMatrix:
    """Rows generating the forms x - y, y - z, z - x."""
    return ((1, -1, 0), (0, 1, -1), (-1, 0, 1))


def matrix_B() -> IntMatrix:
    """Rows generating the forms y - z, z - x, x - y."""
    return ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


def det_I_minus_X(matrix: IntMatrix, T: int) -> MSeries:
    """det(I - XA) with X = diag(x_1..x_m), as a polynomial series."""
    m = _validate_matrix(matrix)
    cells = [
        [
            MSeries.const(m, T, 1 if i == j else 0) - _variable(i, m, T, matrix[i][j])
            for j in range(m)
        ]
        for i in range(m)
    ]

    def det(rows: list[list[MSeries]]) -> MSeries:
        if len(rows) == 1:
            return rows[0][0]
        total = MSeries.zero(m, T)
        for j, cell in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = cell * det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return det(cells)


def _validate_exponents(matrix: IntMatrix, k: tuple[int, ...]) -> tuple[int, int]:
    """Matrix side and truncation max(k), the least that holds x^k."""
    m = _validate_matrix(matrix)
    if len(k) != m:
        raise DomainError("exponent vector length must match matrix side")
    _require_ints(**{f"k[{i}]": e for i, e in enumerate(k)})
    return m, max(k)


def master_theorem_product_coefficient(matrix: IntMatrix, k: tuple[int, ...]) -> int:
    """Coefficient of x^k in the product over i of (row_i . x)^{k_i}."""
    m, T = _validate_exponents(matrix, k)
    product = MSeries.const(m, T, 1)
    for i, row in enumerate(matrix):
        form = MSeries.zero(m, T)
        for j, a in enumerate(row):
            if a:
                form = form + _variable(j, m, T, a)
        product = product * form**k[i]
    return product.coefficient(tuple(k))


def master_theorem_inverse_coefficient(matrix: IntMatrix, k: tuple[int, ...]) -> int:
    """Coefficient of x^k in 1 / det(I - XA)."""
    _, T = _validate_exponents(matrix, k)
    return det_I_minus_X(matrix, T).invert_unit().coefficient(tuple(k))


def master_theorem_check(matrix: IntMatrix, k: tuple[int, ...]) -> bool:
    """True iff both coefficient extractions agree at x^k."""
    lhs = master_theorem_product_coefficient(matrix, k)
    rhs = master_theorem_inverse_coefficient(matrix, k)
    return lhs == rhs


def dixon_product_coefficient(n: int) -> int:
    """[x^n y^n z^n] of (x-y)^n (y-z)^n (x-z)^n by direct expansion."""
    _require_at_least(1, n=n)
    x, y, z = (_variable(j, 3, n) for j in range(3))
    product = (x - y) ** n * (y - z) ** n * (x - z) ** n
    return product.coefficient((n, n, n))


# -- diagonal alignment -------------------------------------------------------


def alternating_homology_count(n: int, p: int = 3) -> int:
    """Signed count of homology facets of Gamma_p(n).

    A facet with r vertices spans r + 1 shift-vector columns and enters
    with sign (-1)^{(r+1)-1} = (-1)^r, matching the column-indexed
    alternating series sum over g_r.  The facets are counted by one
    prefix-sum pass over the vertex slacks, not listed (see
    facets._signed_chain_count).
    """
    return _signed_chain_count(ComplexParams(p, n))


class AlignmentReport(Record):
    """Outcome of the diagonal-offset scan and the end-to-end identity chain.

    diagonal_by_delta[d][n] is the series_XY coefficient at (n+d, n+d, n+d);
    matches[d] says whether that column equals the alternating homology
    counts for every n; pinned_delta is the unique matching offset if one
    exists.  end_to_end[n] collects the six quantities that must coincide
    at the pinned offset, and end_to_end_ok is their conjunction.
    """

    _fields = (
        "n_max", "deltas", "alternating_counts", "diagonal_by_delta", "matches",
        "pinned_delta", "end_to_end", "end_to_end_ok",
    )


def alignment_check(n_max: int = 6) -> AlignmentReport:
    """Scan the offsets d in DELTAS: is XY at (n+d,..) the signed facet count?

    The scan runs over 2 <= n <= n_max.  If exactly one offset matches, the
    full identity chain is evaluated at it for 1 <= n <= n_max:
    XY diagonal = alternating homology count = alternating sum of cubed
    binomials = its closed form = minus the reduced Euler characteristic,
    plus the direct product-coefficient route.
    """
    _require_at_least(2, n_max=n_max)

    xy = series_XY(n_max + max(DELTAS))
    alternating = {n: alternating_homology_count(n) for n in range(1, n_max + 1)}

    diagonal_by_delta: dict[int, dict[int, int]] = {}
    matches: dict[int, bool] = {}
    for d in DELTAS:
        column = {
            n: xy.coefficient((n + d, n + d, n + d)) for n in range(2, n_max + 1)
        }
        diagonal_by_delta[d] = column
        matches[d] = all(column[n] == alternating[n] for n in column)

    matching = [d for d in DELTAS if matches[d]]
    pinned = matching[0] if len(matching) == 1 else None

    end_to_end: dict[int, dict[str, int]] = {}
    ok = pinned is not None
    if pinned is not None:
        for n in range(1, n_max + 1):
            params = ComplexParams(3, n)
            values = {
                "xy_diagonal": xy.coefficient((n + pinned,) * 3),
                "alternating_homology_count": alternating[n],
                "dixon_lhs": dixon_lhs(n),
                "dixon_rhs": dixon_rhs(n),
                "product_coefficient": dixon_product_coefficient(n),
                "neg_reduced_euler": -reduced_euler_characteristic(
                    f_vector_formula(params)
                ),
            }
            end_to_end[n] = values
            ok = ok and len(set(values.values())) == 1
    return AlignmentReport(
        n_max=n_max,
        deltas=DELTAS,
        alternating_counts=alternating,
        diagonal_by_delta=diagonal_by_delta,
        matches=matches,
        pinned_delta=pinned,
        end_to_end=end_to_end,
        end_to_end_ok=ok,
    )
