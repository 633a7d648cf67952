"""Lights Out on n-by-n grids over GF(2).

Clicking a cell toggles its closed neighborhood; the click-to-lights map
is linear over GF(2). This package computes that map's kernel (the even
parity covers), solves configurations, grows covers between grid sizes by
reflective tiling, certifies worst-case minimum click counts on nullity-2
grids, and censuses kernel dimensions across thousands of sizes.
"""

from .gf2poly import (
    fib_poly,
    nullity,
    nullity_range,
    poly_compose_x_plus_1,
    poly_gcd,
    poly_mod,
)
from .gridmap import (
    CellSet,
    KernelBasis,
    UnsolvableError,
    all_solutions,
    apply_clicks,
    format_pattern,
    format_pbm,
    is_solvable,
    kernel_basis,
    min_clicks,
    neighborhood,
    parse_pattern,
    solve_particular,
)
from .covers import (
    RegionPartition,
    is_even_cover,
    region_partition,
    tile_cover,
)
from .mcp import (
    McpCertificate,
    ilp_optimum,
    mcp_bruteforce,
    mcp_formula,
    mcp_upper_bound,
    verify_certificate,
    worst_case_construct,
)
from .scan import (
    CongruenceReport,
    ConjectureReport,
    ScanRecord,
    census,
    check_conjecture_2_3k,
    read_records_csv,
    read_records_jsonl,
    scan_range,
    verify_congruences,
    write_records_csv,
    write_records_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "fib_poly",
    "nullity",
    "nullity_range",
    "poly_compose_x_plus_1",
    "poly_gcd",
    "poly_mod",
    "CellSet",
    "KernelBasis",
    "UnsolvableError",
    "all_solutions",
    "apply_clicks",
    "format_pattern",
    "format_pbm",
    "is_solvable",
    "kernel_basis",
    "min_clicks",
    "neighborhood",
    "parse_pattern",
    "solve_particular",
    "RegionPartition",
    "is_even_cover",
    "region_partition",
    "tile_cover",
    "McpCertificate",
    "ilp_optimum",
    "mcp_bruteforce",
    "mcp_formula",
    "mcp_upper_bound",
    "verify_certificate",
    "worst_case_construct",
    "CongruenceReport",
    "ConjectureReport",
    "ScanRecord",
    "census",
    "check_conjecture_2_3k",
    "read_records_csv",
    "read_records_jsonl",
    "scan_range",
    "verify_congruences",
    "write_records_csv",
    "write_records_jsonl",
    "__version__",
]
