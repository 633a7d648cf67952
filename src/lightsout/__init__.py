"""Lights Out on n-by-n grids over GF(2).

Clicking a cell toggles its closed neighborhood; the click-to-lights map
is linear over GF(2). This package computes that map's kernel (the even
parity covers), solves configurations, grows covers between grid sizes by
reflective tiling, certifies worst-case minimum click counts on nullity-2
grids, and censuses kernel dimensions across thousands of sizes.
"""

from . import covers, gf2poly, gridmap, mcp, scan
from .covers import *  # noqa: F401,F403
from .gf2poly import *  # noqa: F401,F403
from .gridmap import *  # noqa: F401,F403
from .mcp import *  # noqa: F401,F403
from .scan import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *gf2poly.__all__, *gridmap.__all__, *covers.__all__, *mcp.__all__, *scan.__all__,
]
