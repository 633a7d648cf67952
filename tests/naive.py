"""Independent slow oracles used only by the tests.

Everything here favors transparency over speed: polynomials are lists of
0/1 coefficients, matrices are lists of 0/1 lists, and searches are
exhaustive. The library must agree with these on small inputs; nothing
in here imports the library.
"""

from __future__ import annotations

from functools import lru_cache


# -- polynomials over GF(2): lists of 0/1 coefficients, index = degree --------
# The zero polynomial is the empty list.

def p_trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def p_deg(a: list[int]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(p_trim(a)) - 1


def p_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, coef in enumerate(b):
        out[i] ^= coef
    return p_trim(out)


def p_mul(a: list[int], b: list[int]) -> list[int]:
    a, b = p_trim(a), p_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] ^= cb
    return p_trim(out)


def p_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    a, b = p_trim(a), p_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while len(r) >= len(b) and r:
        shift = len(r) - len(b)
        q[shift] ^= 1
        for i, coef in enumerate(b):
            r[shift + i] ^= coef
        r = p_trim(r)
    return p_trim(q), r


def p_mod(a: list[int], b: list[int]) -> list[int]:
    return p_divmod(a, b)[1]


def p_gcd(a: list[int], b: list[int]) -> list[int]:
    a, b = p_trim(a), p_trim(b)
    while b:
        a, b = b, p_mod(a, b)
    return a


def p_compose_x_plus_1(a: list[int]) -> list[int]:
    """a(x + 1), by Horner's rule with explicit multiplication."""
    out: list[int] = []
    for coef in reversed(p_trim(a)):
        out = p_add(p_mul(out, [1, 1]), [coef])
    return out


def p_fib(m: int) -> list[int]:
    """m-th Fibonacci polynomial over GF(2): f1 = 1, f2 = x, f = x*f' + f''."""
    if m < 1:
        raise ValueError("m must be >= 1")
    prev, cur = [], [1]
    for _ in range(m - 1):
        prev, cur = cur, p_add(p_mul([0, 1], cur), prev)
    return cur


def nullity_naive(n: int) -> int:
    f = p_fib(n + 1)
    return p_deg(p_gcd(f, p_compose_x_plus_1(f)))


# -- the same polynomials packed into ints: bit i is the coefficient of x^i -----

def int_fib_sweep(m: int) -> list[int]:
    """[f_0, f_1, ..., f_m] by the plain recurrence f_k = x*f_{k-1} + f_{k-2}."""
    fibs = [0, 1]
    for _ in range(m - 1):
        fibs.append((fibs[-1] << 1) ^ fibs[-2])
    return fibs[: m + 1]


def int_compose(a: int, g: int) -> int:
    """a(g(x)), by Horner's rule with a shift-and-add product by g."""
    shifts = [i for i in range(g.bit_length()) if g >> i & 1]
    out = 0
    for coef in format(a, "b"):
        prod = 0
        for i in shifts:
            prod ^= out << i
        out = prod ^ (coef == "1")
    return out


def int_mul(a: int, b: int) -> int:
    """a*b, one shifted copy of a for every set bit of b."""
    out = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            out ^= a << i
    return out


def int_gcd(a: int, b: int) -> int:
    """Plain Euclid, each remainder by long division."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def int_nullity_range(hi: int) -> list[int]:
    """[d(1), ..., d(hi)] as deg gcd(f_{n+1}(x), f_{n+1}(x+1)), all in the x-domain."""
    return [int_gcd(f, int_compose(f, 0b11)).bit_length() - 1
            for f in int_fib_sweep(hi + 1)[2:]]


# -- grids: configurations and click sets as plain int bitmasks ----------------

def neighborhood_naive(n: int, r: int, c: int) -> int:
    mask = 0
    for rr, cc in ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if 0 <= rr < n and 0 <= cc < n:
            mask |= 1 << (rr * n + cc)
    return mask


def click_matrix(n: int) -> list[list[int]]:
    """Row i = lights toggled by clicking cell i, as a 0/1 list."""
    size = n * n
    rows = []
    for i in range(size):
        mask = neighborhood_naive(n, i // n, i % n)
        rows.append([(mask >> j) & 1 for j in range(size)])
    return rows


def apply_clicks_naive(n: int, clicks: int) -> int:
    out = 0
    for i in range(n * n):
        if (clicks >> i) & 1:
            out ^= neighborhood_naive(n, i // n, i % n)
    return out


def kernel_basis_naive(n: int) -> list[int]:
    """A basis of the click sets with no effect.

    Textbook free-variable elimination: reduce the click matrix (rows as
    int bitsets, bit j = column j) and read the nullspace basis, one
    vector per free column.
    """
    size = n * n
    rows = [neighborhood_naive(n, i // n, i % n) for i in range(size)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(size):
        pivot = next((i for i in range(r, size) if (rows[i] >> c) & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(size):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivot_of_col[c] = r
        r += 1
    basis = []
    for c in range(size):
        if c in pivot_of_col:
            continue
        vec = 1 << c
        for pc, pr in pivot_of_col.items():
            if (rows[pr] >> c) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def kernel_span_naive(n: int) -> set[int]:
    """Every click set with no effect: the span of ``kernel_basis_naive``."""
    span = {0}
    for b in kernel_basis_naive(n):
        span |= {s ^ b for s in span}
    return span


def span_walk(basis: list[int]):
    """Every XOR of a subset of ``basis``, one at a time in Gray-code order."""
    x = 0
    yield x
    for i in range(1, 1 << len(basis)):
        x ^= basis[(i & -i).bit_length() - 1]
        yield x


def cell_types_naive(n: int, basis: list[int]) -> list[int]:
    """Cell masks by type: cell v goes to t = sum of 2^j over the basis
    vectors j that contain it, one cell at a time."""
    types = [0] * (1 << len(basis))
    for v in range(n * n):
        t = 0
        for j, b in enumerate(basis):
            if (b >> v) & 1:
                t |= 1 << j
        types[t] |= 1 << v
    return types


def solve_naive(n: int, config: int) -> int | None:
    """One click set producing ``config``, or None; augmented elimination."""
    size = n * n
    # columns are clicks, rows are lights; the matrix is symmetric so the
    # same rows serve, augmented with the target bit per light.
    rows = [list(row) + [(config >> i) & 1] for i, row in enumerate(click_matrix(n))]
    r = 0
    pivots = []
    for c in range(size):
        pivot = next((i for i in range(r, size) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(size):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, size):
        if rows[i][size]:
            return None
    out = 0
    for i, c in enumerate(pivots):
        if rows[i][size]:
            out |= 1 << c
    return out


@lru_cache(maxsize=None)
def lightest_by_image(n: int) -> dict[int, int]:
    """Fewest clicks producing each image, over every one of the 2^(n^2) click sets (n <= 4)."""
    size = n * n
    best: dict[int, int] = {}
    for clicks in range(1 << size):
        image = apply_clicks_naive(n, clicks)
        w = bin(clicks).count("1")
        if best.get(image, size + 1) > w:
            best[image] = w
    return best


def brute_min_clicks(n: int, config: int) -> int | None:
    """Minimum clicks for ``config`` over every one of the 2^(n^2) click sets."""
    return lightest_by_image(n).get(config)


def coset_min_naive(n: int, solution: int, span) -> tuple[int, int]:
    """Fewest clicks over ``solution ^ e`` for every e in ``span``, member by member.

    Among the lightest members the witness is the one whose reading-order
    0/1 string (cell 0 first) sorts first. ``span`` is any iterable of the
    kernel's elements, such as ``span_walk(kernel_basis_naive(n))``, which
    stores none of them.
    """
    best, ties = n * n + 1, []
    for e in span:
        member = solution ^ e
        w = member.bit_count()
        if w < best:
            best, ties = w, [member]
        elif w == best:
            ties.append(member)
    return best, min(ties, key=lambda m: format(m, f"0{n * n}b")[::-1])


def brute_mcp(n: int) -> int:
    """Worst-case minimum click count by exhausting every click set (n <= 4)."""
    return max(lightest_by_image(n).values())


def coset_leader_mcp(n: int) -> int:
    """Worst-case minimum click count as the largest coset-leader weight.

    Picks d cells on which the kernel span projects one-to-one, so every
    coset has exactly one representative clear on them, then walks those
    representatives in Gray-code order and keeps the max over cosets of
    the min weight of ``x ^ e`` over the span.
    """
    size = n * n
    span = sorted(kernel_span_naive(n))
    fixed = 0
    for c in range(size):
        if len({e & fixed for e in span}) == len(span):
            break
        if len({e & (fixed | 1 << c) for e in span}) > len({e & fixed for e in span}):
            fixed |= 1 << c
    free = [1 << c for c in range(size) if not (fixed >> c) & 1]
    total = 1 << len(free)
    best = 0
    x = 0
    for i in range(1, total + 1):
        w = size
        for e in span:  # min((x ^ e).bit_count() for e in span), unrolled
            v = (x ^ e).bit_count()
            if v < w:
                w = v
        if w > best:
            best = w
        if i < total:
            x ^= free[(i & -i).bit_length() - 1]
    return best


def lex_smallest_worst_representative(n: int) -> int:
    """The first representative in reading order attaining the max-min weight.

    The pivots are the lowest cells of the nonzero kernel elements, and the
    representatives are the click sets clear on them. Every one is scanned;
    ties go to the reading-order 0/1 string that sorts first.
    """
    size = n * n
    span = kernel_span_naive(n)
    pivots = {(e & -e).bit_length() - 1 for e in span if e}
    free = [c for c in range(size) if c not in pivots]
    best_key = None
    best_rep = 0
    for mask in range(1 << len(free)):
        x = 0
        for j, c in enumerate(free):
            if (mask >> j) & 1:
                x |= 1 << c
        w = min(bin(x ^ e).count("1") for e in span)
        reading = "".join("1" if (x >> c) & 1 else "0" for c in range(size))
        key = (-w, reading)
        if best_key is None or key < best_key:
            best_key, best_rep = key, x
    return best_rep


# -- tiling: grids as lists of 0/1 rows -----------------------------------------

def tile_naive(rows: list[list[int]], n: int, k: int) -> list[list[int]]:
    """Tile an (n-1)x(n-1) 0/1 grid k times each way, from the definition.

    Output line i (a row or a column) lies in tile i // n at offset i % n.
    Offset n-1 is an empty separator line; any other line is the folded
    source line: offset i % n in even tiles, mirrored to n-2 - offset in
    odd ones.
    """
    def fold(i: int) -> int | None:
        tile, off = divmod(i, n)
        if off == n - 1:
            return None
        return n - 2 - off if tile % 2 else off

    side = n * k - 1
    out = []
    for r in range(side):
        sr = fold(r)
        line = []
        for c in range(side):
            sc = fold(c)
            line.append(0 if sr is None or sc is None else rows[sr][sc])
        out.append(line)
    return out
