"""Truncated integer power series and the k-Schroeder generating functions.

The generating function for peak/valley-free paths in y >= kx, graded by
x-coordinate of the endpoint on y = kx, splits as F = 1 + FD + FE where FD
and FE count the paths ending with a diagonal step and an east step.  FD is
pinned down by an algebraic fixed-point equation

    FD = x (1 + FD)^(k+1) - x^2 (1 + FD)^(2k-1)

whose right-hand side at x^n reads only lower coefficients of FD.  So FD is
solved one coefficient per step, each distinct power of G = 1 + FD kept once
by J.C.P. Miller's recurrence (Knuth, TAOCP 2, 4.7), then substituted once
into the equation as the independent check, factored as FD = x G^(k-1) F:
its factor F = G^2 - x G^k is the full series, and FE = F - G.  A product of
equal series takes each cross term once.  Everything is integer arithmetic;
square roots are never taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import _exact, _term_walk, binomial
from .errors import agree
from .paths import _as_slope


@dataclass(frozen=True)
class PowerSeries:
    """A power series truncated at x^order, with exact integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series stores at least the constant term")
        coeffs = tuple(map(int, self.coeffs))
        if coeffs != tuple(self.coeffs):  # 2.0 is 2; 2.5 is refused, not truncated
            raise ValueError(f"coefficients must be integers, got {self.coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, value: int, order: int) -> "PowerSeries":
        return cls((value,) + (0,) * order)

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

    def __mul__(self, other: "PowerSeries | int") -> "PowerSeries":
        if isinstance(other, int):
            return PowerSeries(tuple(other * c for c in self.coeffs))
        a, b = self._align(other)
        n = len(a) - 1
        out = [0] * (n + 1)
        if a == b:  # a square: a_i^2 once, and each cross term a_i a_j (i < j) once, doubled
            for i, ai in enumerate(a[: n // 2 + 1]):
                if ai:
                    out[2 * i] += ai * ai
                    twice = 2 * ai
                    for j in range(i + 1, n + 1 - i):
                        out[i + j] += twice * a[j]
            return PowerSeries(tuple(out))
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


@dataclass(frozen=True)
class SeriesTriple:
    """F, FD, FE for one slope k: all paths / ending with D / ending with E."""

    k: int
    f: PowerSeries
    fd: PowerSeries
    fe: PowerSeries


def assemble_triple(k: int, order: int) -> SeriesTriple:
    """(F, FD, FE): FD solved online, checked once, and F and FE read off the check.

    [x^n]FD = [x^(n-1)]G^(k+1) - [x^(n-2)]G^(2k-1) with G = 1 + FD, O(order^2) for
    every k. G^(2k-1) is G at k = 1 and G^(k+1) at k = 2, so each distinct power has one
    Miller recurrence. The check FD = x G^(k-1) F forms F = G^2 - x G^k, and
    FE = G FD - x G^k = F - G.
    """
    k = _as_slope(k)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    g, p = [1], [1]  # G, G^(k+1)
    q = g if k == 1 else p if k == 2 else [1]  # G^(2k-1), its own recurrence from k = 3
    for n in range(1, order + 1):
        g.append(p[n - 1] - (q[n - 2] if n > 1 else 0))
        p.append(_miller_next(g, p, k + 1))
        if k > 2:
            q.append(_miller_next(g, q, 2 * k - 1))
    fd = PowerSeries((0, *g[1:]))
    x = PowerSeries.x(order)
    one_fd = 1 + fd
    low = one_fd ** (k - 1)
    f = one_fd * one_fd - x * (low * one_fd)
    agree(f"fixed point for k={k} not stable to order {order}",
          {"solved": list(fd.coeffs), "substituted": list((x * low * f).coeffs)}, "x^{}".format)
    return SeriesTriple(k=k, f=f, fd=fd, fe=f - one_fd)


def solve_fd(k: int, order: int) -> PowerSeries:
    """Fixed point of FD = x (1 + FD)^(k+1) - x^2 (1 + FD)^(2k-1), order exact."""
    return assemble_triple(k, order).fd


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return _exact(binomial(2 * n, n), n + 1, f"catalan({n})")


def closed_k1(n: int) -> tuple[int, int, int]:
    """Coefficients ([x^n]F, [x^n]FD, [x^n]FE) for k = 1: [x^j]F sums catalan(m) C(j+m, 3m)
    over m, walked by exact term ratios; FD = xF reads it at j = n - 1, and by Pascal's
    rule FE = (1 - x)F - 1 is their difference, less 1 at n = 0."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")

    def f(j: int, name: str) -> int:  # [x^j]F, 0 at j = -1
        return _term_walk(binomial(j, 0), j // 2, lambda m: (
            2 * (2 * m + 1) * (j + m + 1) * (j - 2 * m) * (j - 2 * m - 1),
            (m + 2) * (3 * m + 1) * (3 * m + 2) * (3 * m + 3)), f"closed_k1({n}) {name}")

    fn, fd = f(n, "F"), f(n - 1, "FD")
    return fn, fd, fn - fd - (n == 0)


def closed_k2(n: int) -> tuple[int, int]:
    """Coefficients ([x^n]F, [x^n]FD) for k = 2: sums over j (m = n - j) of (-1)^j times
    C(3m+1, m)/(m+1) C(m+1, j) and C(3m, m-1)/m C(m, j), walked by exact term ratios."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    what = f"closed_k2({n})"
    first = _exact(binomial(3 * n + 1, n), n + 1, f"{what} F term 0")
    f = _term_walk(first, (n + 1) // 2, lambda j: (
        -2 * (2 * n - 2 * j + 1) * (n - 2 * j) * (n - 2 * j + 1),
        3 * (3 * n - 3 * j - 1) * (3 * n - 3 * j + 1) * (j + 1)), f"{what} F")
    first = _exact(binomial(3 * n, n - 1), max(n, 1), f"{what} FD term 0")  # 0 / 1 at n = 0
    fd = _term_walk(first, n // 2, lambda j: (
        -2 * (2 * n - 2 * j + 1) * (n - 2 * j) * (n - 2 * j - 1),
        3 * (3 * n - 3 * j - 1) * (3 * n - 3 * j - 2) * (j + 1)), f"{what} FD")
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
    if triple.k != 1:
        raise ValueError(f"the radical identity is for k=1, got a triple for k={triple.k}")
    f, fd, fe = (s.truncate(order) for s in (triple.f, triple.fd, triple.fe))
    x = PowerSeries.x(order)
    one_minus_x = 1 - x
    lhs = (one_minus_x**2 - 2 * x * x * f) ** 2
    rhs = one_minus_x**4 - 4 * x * x * one_minus_x
    pairs = ((lhs, rhs), (fd, x * f), (fe, one_minus_x * f - 1))
    if all(left == right for left, right in pairs):
        return RadicalCheck(ok=True)
    return RadicalCheck(ok=False, first_mismatch=next(
        i for i in range(order + 1) if any(left[i] != right[i] for left, right in pairs)))
