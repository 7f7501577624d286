"""The k-Schroeder generating functions, each a tuple of exact integer coefficients.

The generating function for peak/valley-free paths in y >= kx, graded by
x-coordinate of the endpoint on y = kx, splits as F = 1 + FD + FE where FD
and FE count the paths ending with a diagonal step and an east step.  FD is
pinned down by an algebraic fixed-point equation

    FD = x (1 + FD)^(k+1) - x^2 (1 + FD)^(2k-1)

whose right-hand side at x^n reads only lower coefficients of FD.  Being
algebraic, G = 1 + FD has coefficients that satisfy a linear recurrence with
polynomial coefficients (Stanley, EC2 6.4); for k = 1, 2, 3 that P-recurrence
is tabled here and solves G in O(N), one exact division per coefficient.  Its
first coefficients, and every coefficient from k = 4 on, are each one term walk
of G's Lagrange-inversion sum (Stanley, EC2 5.4).  Either solve is substituted
once into the equation as the independent check, factored as FD = x G^(k-1) F:
its factor F = G^2 - x G^k is the full series, and FE = F - G.  The check
multiplies G's coefficient list by one product kernel, k products in all, one
of them the square, which takes each cross term once; multiplying by x is a
shift.  The k = 1 radical form is checked by the differential equation of its
root, in O(N).  Integer arithmetic throughout; square roots are never taken.
A checked triple is kept per slope, so a later call at that order or below is
answered from it without a second solve.
"""

from __future__ import annotations

from operator import index, mul

from .counting import _exact, _term_walk, binomial
from .errors import agree
from .paths import _as_slope, _Record


def _product(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of a b up to the shorter operand's order. A square takes a_i^2 once and each
    cross term a_i a_j (i < j) once, doubled; any other product skips a's zero coefficients."""
    n = min(len(a), len(b))
    out = [0] * n
    if a == b:
        for i, ai in enumerate(a[: (n + 1) // 2]):
            if ai:
                out[2 * i] += ai * ai
                twice = 2 * ai
                for j in range(i + 1, n - i):
                    out[i + j] += twice * a[j]
        return out
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return out


def _lagrange(k: int, n: int) -> int:
    """[x^n]G = (1/a) sum_(s <= n/2) (-1)^s a C(a-s-1, s)/(a-2s) C(c-3s, n-2s), a = kn+1, c = (k+1)n.
    With z = x G^k the fixed point is (1-z) G^2 - G + z^2 = 0, so G = Phi(z) = alpha/(1-z), where
    alpha^2 - alpha + z^2 (1-z) = 0; Lagrange inversion of z = x Phi(z)^k gives [z^n]Phi^a / a, and
    Lucas' expansion of alpha^a gives the sum, as the conjugate root's a-th power starts at z^(2a)."""
    a, c, what = k * n + 1, (k + 1) * n, f"coefficient {n} of 1+FD for k={k}"
    total = _term_walk(binomial(c, n), n // 2, lambda s: (
        -(a - 2 * s - 1) * (a - 2 * s) * (n - 2 * s) * (n - 2 * s - 1) * (c - n - s),
        (s + 1) * (a - s - 1) * (c - 3 * s) * (c - 3 * s - 1) * (c - 3 * s - 2)), what)
    return _exact(total, a, what)


# P-recurrences of G = 1 + FD: sum_(i=0..r) P_i(n) g_(n+i) = 0 for every n >= 0, each P_i listed
# from its top coefficient in n down, each fitted to G's first 200 coefficients.  Each is proved for
# every n by a degree bound D = 16, 61, 261 (tests/helpers.py, recurrence_bound): a solve that passes
# its substitution check to order D.  Every P_r has positive coefficients only, so no root at n >= 0.
_RECURRENCES = {
    1: ((1, -1), (0, 0), (2, 4), (-4, -14), (1, 5)),
    2: ((-27, -135, -186, -72), (54, 324, 618, 384), (-31, -221, -522, -408), (4, 34, 94, 84)),
    3: ((849513723349869250000, 12312662365368059234375, 69887173097036511353125,
         200966013856190557175000, 315848507408322971064700, 270249282100744260654800,
         115514957458075571859840, 18702276197274781655040),
        (-1042818306321695650000, -18955515049123357921875, -144311034522395154424375,
         -599968960055833440138750, -1476949971602007428207740, -2156239539376651329883860,
         -1727406392288233815208560, -584459424228152533725000),
        (346565806756663580960, 7884274281272146855110, 75379219102483063964162,
         391790693040593870077740, 1193415815496101401515350, 2126938396688365499381580,
         2050620033354370001684328, 823816863709138385556120),
        (35863139085683322720, 531082440998413805786, 2397616088295582112722, -875911047251273338000,
         -40090157497298264482410, -128892274251112803811636, -165839492072843016910392,
         -75201892103460391640280),
        (-32909594435725607920, -834736471344317920285, -8914975133022175178119,
         -51811259952872871554980, -176288724349865736965770, -349489743912936645347020,
         -371586989899142595941256, -162346416090362290808280),
        (3138111310825154160, 88691437336261267593, 1046935462897614819525, 6662179042942837578030,
         24546505572268716264990, 51994552696221645078552, 58111982692410613491960,
         26181950085007160976000)),
}


def _recurrence_next(polys: tuple[tuple[int, ...], ...], g: list[int]) -> int:
    """Next coefficient of G from the r before it: P_r(n) g_(n+r) = -sum_(i<r) P_i(n) g_(n+i)."""
    n = len(g) - len(polys) + 1
    values = []
    for poly in polys:  # Horner
        value = 0
        for c in poly:
            value = value * n + c
        values.append(value)
    return _exact(-sum(map(mul, values, g[n:])), values[-1], "coefficient {} of 1+FD", len(g))


class SeriesTriple(_Record):
    """F, FD, FE for one slope k: all paths / ending with D / ending with E, each the tuple of
    its coefficients at x^0..x^order, [x^n] at index n."""

    __slots__ = ("k", "f", "fd", "fe")


# slope -> the longest triple that passed its check, least recently used first
_CHECKED: dict[int, SeriesTriple] = {}
_SLOPES_KEPT = 4


def assemble_triple(k: int, order: int) -> SeriesTriple:
    """(F, FD, FE): FD solved, checked once, and F and FE read off the check.

    For k <= 3, G = 1 + FD takes one step of its P-recurrence per coefficient past the
    first r, O(order) in all. Those r, and from k = 4 on every coefficient, are each
    G's Lagrange-inversion sum, O(n) big-integer steps at x^n (``_lagrange``). The check
    FD = x G^(k-1) F forms F = G^2 - x G^k on coefficient lists, each power of G once: one
    square and k - 1 further products (none at k = 1), each x a shift. FE = F - G.

    The longest triple that passed the check is kept for each of the last four slopes
    used. A call at its order returns it, and a lower order its three prefixes, checked too:
    coefficient j of every product reads only coefficients <= j. A longer call solves
    and checks afresh at exactly its order, and keeps that triple in its place.
    """
    k, order = _as_slope(k), index(order)  # a float order is refused, kept triple or not
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    kept = _CHECKED.pop(k, None)  # put back last, as the most recently used
    if kept is not None and len(kept.f) > order:
        _CHECKED[k] = kept
        if len(kept.f) == order + 1:
            return kept
        return SeriesTriple(k, *(s[: order + 1] for s in (kept.f, kept.fd, kept.fe)))
    polys = _RECURRENCES.get(k)
    start = len(polys) - 1 if polys else order + 1  # the first coefficient the recurrence takes
    g = [_lagrange(k, n) for n in range(min(start, order + 1))]
    for _ in range(start, order + 1):
        g.append(_recurrence_next(polys, g))
    square = _product(g, g)
    low, high = (None, g) if k == 1 else (g, square)  # G^(k-1), G^k: only these are kept
    for _ in range(2, k):
        low, high = high, _product(high, g)
    f = [s - t for s, t in zip(square, [0, *high])]  # F = G^2 - x G^k, x as a shift
    fd = [0, *g[1:]]
    agree(f"fixed point for k={k} not stable to order {order}",
          {"solved": fd, "substituted": [0, *(f if low is None else _product(low, f))[:-1]]},
          "x^{}".format)
    triple = _CHECKED[k] = SeriesTriple(  # stored only once agree returned
        k, tuple(f), tuple(fd), tuple(s - t for s, t in zip(f, g)))
    if len(_CHECKED) > _SLOPES_KEPT:
        del _CHECKED[next(iter(_CHECKED))]
    return triple


def solve_fd(k: int, order: int) -> tuple[int, ...]:
    """Coefficients of FD at x^0..x^order, the fixed point of FD = x (1 + FD)^(k+1) - x^2 (1 + FD)^(2k-1)."""
    return assemble_triple(k, order).fd


def closed_k1(n: int) -> tuple[int, int, int]:
    """Coefficients ([x^n]F, [x^n]FD, [x^n]FE) for k = 1: [x^j]F sums C_m C(j+m, 3m) (Catalan C_m)
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


class RadicalCheck(_Record):
    """Result of the k=1 algebraicity check; falsy when some coefficient fails."""

    __slots__ = ("ok", "first_mismatch")
    _defaults = {"first_mismatch": None}

    def __bool__(self) -> bool:
        return self.ok


def radical_check_k1(order: int, triple: SeriesTriple | None = None) -> RadicalCheck:
    """Verify the k=1 closed algebraic form by a differential equation, not by squaring.

    P = (1-x)^2 - 2 x^2 F must be sqrt(D), D = 1 - 4x + 2x^2 + x^4, with FD = x F and FE =
    (1-x) F - 1, up to the order. P^2 = D gives 2 D P' = D' P; as D(0) = 1, that fixes p_n from
    p_(<n), and p_0 = 1 picks +sqrt(D). [x^(n-1)](D P' - D' P / 2) = n p_n - (4n-6) p_(n-1)
    + (2n-6) p_(n-2) + (n-6) p_(n-4) is first nonzero where P first leaves sqrt(D), as P^2 - D
    is: O(order) operations, no series product. Reports the first failing index, if any."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if triple is None:
        triple = assemble_triple(1, order)
    if triple.k != 1:
        raise ValueError(f"the radical identity is for k=1, got a triple for k={triple.k}")
    for s in (triple.f, triple.fd, triple.fe):
        if len(s) <= order:
            raise ValueError(f"cannot extend truncation {len(s) - 1} to {order}")
    f, fd, fe = (s[: order + 1] for s in (triple.f, triple.fd, triple.fe))
    p = [0, 0, 0, 0, 1, -2, 1 - 2 * f[0], *(-2 * c for c in f[1:order - 1])]  # p_n at p[n + 4]
    prev = (0, *f)  # f_(n-1) at prev[n]
    for n in range(order + 1):
        if (n * p[n + 4] - (4 * n - 6) * p[n + 3] + (2 * n - 6) * p[n + 2] + (n - 6) * p[n]
                or fd[n] != prev[n] or fe[n] != f[n] - prev[n] - (n == 0)):
            return RadicalCheck(False, n)
    return RadicalCheck(True, None)
