"""``python -m leftreal``: the command-line interface, as the ``leftreal``
console script runs it."""

import sys

from .cli import main

sys.exit(main())
