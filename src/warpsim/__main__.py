"""``python -m warpsim``: the ``warpsim`` command line."""

import sys

from .cli import main

sys.exit(main())
