"""Most Clicks Problem solvers and certificates.

The MCP asks how many clicks a worst-case solvable configuration needs.
For kernel dimension 0 every configuration has a unique solution and the
answer is the full board. For grids of side 6k-1 whose kernel dimension
is 2, a minimal solution meets each nonzero cover in at most half its
cells, which caps its overlap with the three regions the covers share
pairwise (``covers.region_partition``) and gives 26k^2 - 12k + 1 clicks
at most. Half of each of those regions plus all of the fourth attains
the cap: the configuration it clicks has four solutions of exactly that
weight. That configuration and its witness form a certificate that the
bound is attained, trusted only once ``verify_certificate`` has
recomputed it.

An exhaustive oracle is included for small boards: the solvable
configurations correspond one-to-one to canonical coset representatives
of the kernel in click space, and the MCP is the max over cosets of the
min member weight. A representative's weights against the kernel members
form a profile, one byte a member, that each set cell shifts by a fixed
delta and each clear cell leaves alone. So the search is a union of sets
of profiles per free cell, at most a few thousand states, where a scan
would visit 2^(n^2 - d) representatives; two more passes over the stored
sets recover the lex-smallest worst representative.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import NamedTuple

from .covers import is_even_cover, region_partition
from .gf2poly import nullity
from .gridmap import (
    CellSet,
    _span,
    apply_clicks,
    format_pattern,
    kernel_basis,
    min_clicks,
    parse_pattern,
)

__all__ = [
    "McpCertificate",
    "mcp_formula",
    "mcp_bruteforce",
    "worst_case_construct",
    "verify_certificate",
]

BUDGET_BITS = 24  # the most coset bits mcp_bruteforce will search


def mcp_formula(k: int) -> int:
    """Worst-case click count bound 26k^2 - 12k + 1 for a (6k-1)x(6k-1) grid."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 26 * k * k - 12 * k + 1


# -- exhaustive oracle -------------------------------------------------------

def mcp_bruteforce(n: int) -> tuple[int, CellSet]:
    """Exact MCP for an n-by-n grid over every coset of the kernel.

    The representatives are the click sets clear on the basis's pivot
    cells; there are 2^(n^2 - d) of them for kernel dimension d, and the
    search is refused above ``BUDGET_BITS`` coset bits before the kernel
    is built. An empty kernel needs no search: the answer is n^2,
    whatever the budget.

    A dynamic program over the free cells in row-major order accounts for
    every representative. Its state is a weight profile: |x ^ m| for each
    kernel member m, one byte a member, with the cells of x not yet
    decided taken clear. Leaving a cell clear changes no profile, so the
    pivot cells take no step; setting free cell i adds one fixed delta,
    +1 in the bytes of the members without i and -1 in those with it.
    Each step is a set union of the states and their shifted copies.
    Bytes never overflow: the budget admits only n^2 - d <= 24 with
    d <= n, so n <= 5 and no weight exceeds 25. The best value is the
    max over final profiles of the min byte. The tie-break then walks the
    stored sets twice: backward, keeping at each step only the states
    that still reach a best profile; forward, leaving each free cell
    clear whenever that keeps a best profile in reach. That yields the
    lex-smallest best representative, as a scan of every representative
    would. Each step's states are those of a profile over the cells so
    far, shifted by one fixed offset, so at most 2304 are live on 4x4 and
    1728 on 5x5, against 2^12 and 2^23 representatives.
    """
    if n < 1:
        raise ValueError("grid side length must be >= 1")
    size = n * n
    d = nullity(n)
    if d == 0:
        # Every coset is a single click set, so the heaviest is the full
        # board and the worst configuration is its image.
        return size, apply_clicks(CellSet.full(n))
    free_count = size - d
    if free_count > BUDGET_BITS:
        raise ValueError(
            f"{free_count} coset bits for n={n} exceed the budget of "
            f"{BUDGET_BITS} bits"
        )
    kb = kernel_basis(n)
    members = list(_span(kb, 0))
    k = len(members)
    pivots = 0
    for e in kb:
        pivots |= e.bits & -e.bits

    def packed(fields) -> int:
        return int.from_bytes(bytes(fields), "little")

    ones = packed([1] * k)
    free = [i for i in range(size) if not (pivots >> i) & 1]
    deltas = [ones - 2 * packed((m >> i) & 1 for m in members) for i in free]
    start = packed(m.bit_count() for m in members)
    steps = [{start}]  # steps[t]: the profiles after the first t free cells
    for delta in deltas:
        states = steps[-1]
        steps.append(states.union(map(delta.__add__, states)))

    final = list(steps[-1])
    lows = list(map(min, map(int.to_bytes, final, repeat(k), repeat("little"))))
    best = max(lows)
    # backward: steps[t] keeps only the states that still reach a best profile
    reach = set(compress(final, map(best.__eq__, lows)))
    for t in range(len(deltas), 0, -1):
        steps[t] = reach
        reach = steps[t - 1] & reach.union(map((-deltas[t - 1]).__add__, reach))

    # forward: each free cell stays clear while a best profile stays in reach
    state, rep = start, 0
    for i, delta, live in zip(free, deltas, steps[1:]):
        if state not in live:
            state += delta
            rep |= 1 << i
    return best, apply_clicks(CellSet(n, rep))


# -- constructive certificates ------------------------------------------------

def _field(doc: dict, name: str, parse):
    """``parse(doc[name])``, or a ValueError naming the field."""
    if name not in doc:
        raise ValueError(f"certificate field {name!r} is missing")
    try:
        return parse(doc[name])
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"certificate field {name!r} is malformed: {exc}") from None


def _json_int(value) -> int:
    """``value`` if it is a JSON integer; a bool, float or string is refused."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not a JSON integer")
    return value


def _pattern_or_none(value) -> CellSet | None:
    """JSON ``null`` is no pattern; anything else must be a pattern string."""
    return None if value is None else parse_pattern(value)


class McpCertificate(NamedTuple):
    """A worst-case configuration with the witness that certifies it.

    When the grid's nullity is 2 the witness click set hits every kernel
    cover in exactly half its cells, so all four solutions of
    ``worst_config`` share the same weight and the claimed minimum is the
    exact MCP. Otherwise only the upper bound is claimed and the
    certificate is non-certifying (``worst_config``/``witness`` are None).
    """

    k: int
    n: int
    nullity: int
    claimed_min: int
    worst_config: CellSet | None
    witness: CellSet | None

    @property
    def certified(self) -> bool:
        """Whether the witness proves the claim, recomputed on every access."""
        return self.witness is not None and verify_certificate(self)

    def to_json(self) -> str:
        import json

        worst, witness = (None if cells is None else format_pattern(cells)
                          for cells in (self.worst_config, self.witness))
        doc = {
            "k": self.k,
            "n": self.n,
            "nullity": self.nullity,
            "claimed_min": self.claimed_min,
            "certified": self.certified,
            "worst_config": worst,
            "witness": witness,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> McpCertificate:
        """Read a certificate; a stored ``certified`` or ``checks`` is ignored."""
        import json

        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("certificate JSON must be an object")
        return cls(
            k=_field(doc, "k", _json_int),
            n=_field(doc, "n", _json_int),
            nullity=_field(doc, "nullity", _json_int),
            claimed_min=_field(doc, "claimed_min", _json_int),
            worst_config=_field(doc, "worst_config", _pattern_or_none),
            witness=_field(doc, "witness", _pattern_or_none),
        )


def _lowest_bits(bits: int, count: int) -> int:
    """The ``count`` lowest set bits of ``bits``, which has at least that many.

    Splitting the binary digits at their last ``count`` ones leaves the
    high digits above the lowest ``count`` set bits; the rest is the mask.
    """
    digits = format(bits, "b")
    head = digits.rsplit("1", count)[0]
    return bits & ((1 << (len(digits) - len(head))) - 1)


def worst_case_construct(k: int) -> McpCertificate:
    """Build a worst-case configuration certificate for the (6k-1)x(6k-1) grid.

    Region R4 of ``covers.region_partition`` has 16k^2 - 12k + 1 cells;
    R1, R2 and R3 have 4k^2, 8k^2 and 8k^2, and each cover is two of them.
    A minimal solution x meets each cover in at most half its cells, so
    with a_t = |x & R_t| a_1 + a_2 <= 6k^2, a_1 + a_3 <= 6k^2 and
    a_2 + a_3 <= 8k^2. Summing, 2(a_1 + a_2 + a_3) <= 20k^2, so x has at
    most 26k^2 - 12k + 1 cells. The witness, all of R4 and the first half
    of each of R1, R2, R3 in row-major order, attains it: the region
    sizes, which ``region_partition`` checks, make its weight the bound,
    and every solution of its image has exactly that weight. If the
    nullity is not 2 the bound still holds but the certificate is
    non-certifying, and no kernel is built.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 6 * k - 1
    bound = mcp_formula(k)
    d = nullity(n)
    if d != 2:
        return McpCertificate(
            k=k,
            n=n,
            nullity=d,
            claimed_min=bound,
            worst_config=None,
            witness=None,
        )
    *pairs, x = (r.bits for r in region_partition(k))
    for r in pairs:
        x |= _lowest_bits(r, r.bit_count() // 2)
    witness = CellSet(n, x)
    return McpCertificate(
        k=k,
        n=n,
        nullity=2,
        claimed_min=bound,
        worst_config=apply_clicks(witness),
        witness=witness,
    )


def verify_certificate(cert: McpCertificate, check_min_clicks: bool = False) -> bool:
    """Re-check a (possibly deserialized) certificate from scratch.

    Everything is recomputed against the grid itself; a certificate holds
    no stored verdict to trust. With ``check_min_clicks`` the claimed
    minimum is also confirmed by an independent coset scan of the worst
    configuration.
    """
    if cert.k < 1 or cert.claimed_min != mcp_formula(cert.k) or cert.n != 6 * cert.k - 1:
        return False
    if cert.nullity != nullity(cert.n):
        return False
    if cert.nullity != 2 or cert.witness is None or cert.worst_config is None:
        return cert.witness is None and cert.worst_config is None
    if cert.witness.n != cert.n or cert.worst_config.n != cert.n:
        return False
    if apply_clicks(cert.witness) != cert.worst_config:
        return False
    # The basis is checked against the kernel's definition before it is
    # trusted: d nonzero even covers (d from the GCD) with distinct leading
    # cells are independent, so they span the whole kernel.
    basis = kernel_basis(cert.n)
    leads = {e.bits & -e.bits for e in basis} - {0}
    if len(basis) != cert.nullity or len(leads) != len(basis) or not all(map(is_even_cover, basis)):
        return False
    # the walk starts at the witness: it and its three kernel translates weigh the claim
    span = _span(basis, cert.witness.bits)
    if any(x.bit_count() != cert.claimed_min for x in span):
        return False
    if check_min_clicks:
        count, _ = min_clicks(cert.worst_config)
        if count != cert.claimed_min:
            return False
    return True
