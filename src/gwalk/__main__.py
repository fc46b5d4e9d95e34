"""``python -m gwalk``: the command line of :mod:`gwalk.cli`."""

import sys

from .cli import main

sys.exit(main())
