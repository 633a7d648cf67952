"""``python -m lightsout``: the ``lightsout`` command without installing."""

import sys

from . import cli

sys.exit(cli.main())
