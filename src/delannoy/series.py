"""Truncated integer power series and the k-Schroeder generating functions.

The generating function for peak/valley-free paths in y >= kx, graded by
x-coordinate of the endpoint on y = kx, splits as F = 1 + FD + FE where FD
and FE count the paths ending with a diagonal step and an east step.  FD is
pinned down by an algebraic fixed-point equation

    FD = x (1 + FD)^(k+1) - x^2 (1 + FD)^(2k-1)

whose right-hand side at x^n reads only lower coefficients of FD.  So FD is
solved one coefficient per step, the powers of 1 + FD kept by J.C.P. Miller's
recurrence (Knuth, TAOCP 2, 4.7), then substituted once into the equation as
the independent check.  Everything is integer arithmetic; square roots are
never taken (the k=1 radical expression is verified through its quadratic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .counting import _exact, binomial
from .errors import ConsistencyError


@dataclass(frozen=True)
class PowerSeries:
    """A power series truncated at x^order, with exact integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series stores at least the constant term")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "PowerSeries":
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value: int, order: int) -> "PowerSeries":
        return cls((int(value),) + (0,) * order)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        if order == 0:
            return cls((0,))
        return cls((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation {self.order} to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    @staticmethod
    def _coerce(value: "PowerSeries | int", order: int) -> "PowerSeries":
        if isinstance(value, PowerSeries):
            return value
        return PowerSeries.constant(value, order)

    def _align(self, other: "PowerSeries | int") -> tuple[tuple[int, ...], tuple[int, ...]]:
        # mixed orders truncate to the smaller one
        rhs = self._coerce(other, self.order)
        n = min(self.order, rhs.order)
        return self.coeffs[: n + 1], rhs.coeffs[: n + 1]

    def __add__(self, other: "PowerSeries | int") -> "PowerSeries":
        a, b = self._align(other)
        return PowerSeries(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other: "PowerSeries | int") -> "PowerSeries":
        a, b = self._align(other)
        return PowerSeries(tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other: int) -> "PowerSeries":
        return self._coerce(other, self.order) - self

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "PowerSeries | int") -> "PowerSeries":
        if isinstance(other, int):
            return PowerSeries(tuple(other * c for c in self.coeffs))
        a, b = self._align(other)
        n = len(a) - 1
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = PowerSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` (with zero constant term) for the variable."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        result = PowerSeries.zero(n)
        trimmed = inner.truncate(n)
        for c in reversed(self.coeffs[: n + 1]):
            result = result * trimmed + c
        return result


def _miller_next(g: list[int], p: list[int], a: int) -> int:
    """Next coefficient of P = G^a (g[0] = 1): m p_m = sum_j ((a+1) j - m) g_j p_(m-j)."""
    m = len(p)
    total = sum(((a + 1) * j - m) * g[j] * p[m - j] for j in range(1, m + 1))
    return _exact(total, m, f"coefficient {m} of (1+FD)^{a}")


def solve_fd(k: int, order: int) -> PowerSeries:
    """Fixed point of FD = x (1 + FD)^(k+1) - x^2 (1 + FD)^(2k-1), order exact.

    Online with G = 1 + FD: [x^n]FD = [x^(n-1)]G^(k+1) - [x^(n-2)]G^(2k-1), O(order^2)
    for every k; then checked by one substitution with PowerSeries arithmetic.
    """
    if k < 1:
        raise ValueError(f"slope k must be a positive integer, got {k}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    g, p, q = [1], [1], [1]  # G, G^(k+1), G^(2k-1)
    for n in range(1, order + 1):
        g.append(p[n - 1] - (q[n - 2] if n > 1 else 0))
        p.append(_miller_next(g, p, k + 1))
        q.append(_miller_next(g, q, 2 * k - 1))
    fd = PowerSeries((0, *g[1:]))
    x = PowerSeries.x(order)
    one_fd = 1 + fd
    if x * one_fd ** (k + 1) - x * x * one_fd ** (2 * k - 1) != fd:
        raise ConsistencyError(f"fixed point for k={k} not stable at order {order}")
    return fd


@dataclass(frozen=True)
class SeriesTriple:
    """F, FD, FE for one slope k: all paths / ending with D / ending with E."""

    k: int
    f: PowerSeries
    fd: PowerSeries
    fe: PowerSeries


def assemble_triple(k: int, order: int) -> SeriesTriple:
    """Build (F, FD, FE) from the fixed point and check their coupling identities.

    F  = (1 + FD)^2 - x (1 + FD)^k
    FE = (1 + FD) FD - x (1 + FD)^k
    and the cross-checks FD = x F (1 + FD)^(k-1), FE = x (F - 1)(1 + FD)^k,
    F = 1 + FD + FE must all hold to the truncation order.
    """
    fd = solve_fd(k, order)
    x = PowerSeries.x(order)
    one_fd = 1 + fd
    f = one_fd**2 - x * one_fd**k
    fe = one_fd * fd - x * one_fd**k
    checks = (
        ("FD = x F (1+FD)^(k-1)", fd, x * f * one_fd ** (k - 1)),
        ("FE = x (F-1) (1+FD)^k", fe, x * (f - 1) * one_fd**k),
        ("F = 1 + FD + FE", f, 1 + fd + fe),
    )
    for label, left, right in checks:
        if left != right:
            raise ConsistencyError(f"series identity failed for k={k}: {label}")
    if f[0] != 1 or fd[0] != 0 or fe[0] != 0:
        raise ConsistencyError(f"constant terms wrong for k={k}")
    return SeriesTriple(k=k, f=f, fd=fd, fe=fe)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def closed_k1(n: int) -> tuple[int, int, int]:
    """Coefficients ([x^n]F, [x^n]FD, [x^n]FE) for k = 1, by Catalan sums."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    f = sum(catalan(m) * binomial(n + m, 3 * m) for m in range(n + 1))
    fd = sum(catalan(m) * binomial(n + m - 1, 3 * m) for m in range(n + 1))
    fe = sum(catalan(m) * binomial(n + m - 1, 3 * m - 1) for m in range(1, n + 1))
    return f, fd, fe


def closed_k2(n: int) -> tuple[int, int]:
    """Coefficients ([x^n]F, [x^n]FD) for k = 2, by signed sums of exact quotients."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    f = sum(
        (-1) ** (n - m) * _exact(binomial(3 * m + 1, m), m + 1, f"closed_k2({n}) F term {m}")
        * binomial(m + 1, n - m)
        for m in range(n // 2, n + 1)  # smaller m: binomial(m + 1, n - m) = 0
    )
    fd = sum(
        (-1) ** (n - m) * _exact(binomial(3 * m, m - 1), m, f"closed_k2({n}) FD term {m}")
        * binomial(m, n - m)
        for m in range(max(1, (n + 1) // 2), n + 1)  # smaller m: binomial(m, n - m) = 0
    )
    return f, fd


@dataclass(frozen=True)
class RadicalCheck:
    """Result of the k=1 algebraicity check; falsy when some coefficient fails."""

    ok: bool
    first_mismatch: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def radical_check_k1(order: int, triple: SeriesTriple | None = None) -> RadicalCheck:
    """Verify the k=1 closed algebraic form without extracting a square root.

    With P = (1-x)^2 - 2 x^2 F, the claim is P^2 = (1-x)^4 - 4 x^2 (1-x)
    together with FD = x F and FE = (1-x) F - 1, coefficientwise up to the
    truncation order.  Reports the first failing coefficient index, if any.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if triple is None:
        triple = assemble_triple(1, order)
    f = triple.f.truncate(order)
    fd = triple.fd.truncate(order)
    fe = triple.fe.truncate(order)
    x = PowerSeries.x(order)
    one_minus_x = 1 - x
    lhs = (one_minus_x**2 - 2 * x * x * f) ** 2
    rhs = one_minus_x**4 - 4 * x * x * one_minus_x
    pairs = (
        (lhs, rhs),
        (fd, x * f),
        (fe, one_minus_x * f - 1),
    )
    for i in range(order + 1):
        if any(left[i] != right[i] for left, right in pairs):
            return RadicalCheck(ok=False, first_mismatch=i)
    return RadicalCheck(ok=True)
