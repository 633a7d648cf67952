"""Most Clicks Problem solvers and certificates.

The MCP asks how many clicks a worst-case solvable configuration needs.
For kernel dimension 0 every configuration has a unique solution and the
answer is the full board. For grids of side 6k-1 whose kernel dimension
is 2, a minimal solution meets each nonzero cover in at most half its
cells, which caps its overlap with the kernel's three nonzero cell types
and gives 26k^2 - 12k + 1 clicks at most. Half of each nonzero type plus
all of type 0 attains the cap: the configuration it clicks has four
solutions of exactly that weight. That configuration and its witness form
a certificate that the bound is attained, trusted only once
``verify_certificate`` has recomputed it.

An exhaustive oracle is included for small boards: the solvable
configurations correspond one-to-one to canonical coset representatives
of the kernel in click space, and the MCP is the max over cosets of the
min member weight. The weight of a click set against every kernel member
depends only on a profile of running counts, so a dynamic program over
cells keeps one representative per profile: at most a few thousand
states, where a scan would visit 2^(n^2 - d) representatives.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2poly import nullity
from .gridmap import (
    CellSet,
    _span,
    apply_clicks,
    format_pattern,
    kernel_basis,
    lex_less,
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

    A dynamic program over cells in row-major order accounts for every
    representative. Its state is a weight profile: the weight of x ^ m
    so far for each kernel member m, packed into fields of one int, and
    it maps to the lex-smallest prefix x reaching it. Two prefixes with
    equal profiles gain equal weights from any completion, and the lower
    cells decide ``lex_less``, so keeping the smaller prefix loses no
    candidate. The result, the max over profiles of the min field with
    ties to the lex-smallest representative, is that of a scan of every
    representative. At most 2304 profiles are live on 4x4 and 1728 on
    5x5, against 2^12 and 2^23 representatives.
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
    pivots = 0
    for e in kb.basis:
        pivots |= e.bits & -e.bits
    width = size.bit_length()
    ones = sum(1 << (width * j) for j in range(len(members)))

    profiles = {0: 0}  # packed weights of x ^ m -> lex-smallest prefix x
    for i in range(size):
        off = sum(((m >> i) & 1) << (width * j) for j, m in enumerate(members))
        clear = {p + off: x for p, x in profiles.items()}
        if not (pivots >> i) & 1:
            on, bit = ones - off, 1 << i
            for p, x in profiles.items():
                q, y = p + on, x | bit
                if q not in clear or lex_less(y, clear[q]):
                    clear[q] = y
        profiles = clear

    field = (1 << width) - 1
    best_w, best_rep = -1, 0
    for p, x in profiles.items():
        w = min((p >> (width * j)) & field for j in range(len(members)))
        if w > best_w or (w == best_w and lex_less(x, best_rep)):
            best_w, best_rep = w, x
    return best_w, apply_clicks(CellSet(n, best_rep))


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
    """The ``count`` lowest set bits of ``bits``, which has at least that many."""
    out = 0
    for _ in range(count):
        low = bits & -bits
        out |= low
        bits ^= low
    return out


def worst_case_construct(k: int) -> McpCertificate:
    """Build a worst-case configuration certificate for the (6k-1)x(6k-1) grid.

    Type 0 of the kernel's cell types (``KernelBasis.cell_types``) has
    16k^2 - 12k + 1 cells; the nonzero types have 4k^2, 8k^2 and 8k^2, and
    each cover is two of them. A minimal solution x meets each cover in at
    most half its cells, so with a_t = |x & type t| (types by size)
    a_1 + a_2 <= 6k^2, a_1 + a_3 <= 6k^2 and a_2 + a_3 <= 8k^2. Summing,
    2(a_1 + a_2 + a_3) <= 20k^2, so x has at most 26k^2 - 12k + 1 cells.
    The witness, all of type 0 and the first half of each nonzero type in
    row-major order, attains it: every solution of its image has exactly
    that weight. If the nullity is not 2 the bound still holds but the
    certificate is non-certifying, and no kernel is built.
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
    x, *nonzero = kernel_basis(n).cell_types()
    for t in nonzero:
        x |= _lowest_bits(t, t.bit_count() // 2)
    witness = CellSet(n, x)
    if len(witness) != bound:
        raise RuntimeError("constructed witness weight disagrees with the formula")
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
    # the walk starts at the witness: it and its three kernel translates weigh the claim
    span = _span(kernel_basis(cert.n), cert.witness.bits)
    if any(x.bit_count() != cert.claimed_min for x in span):
        return False
    if check_min_clicks:
        count, _ = min_clicks(cert.worst_config)
        if count != cert.claimed_min:
            return False
    return True
