"""``python -m mepnim``: the same command line as the ``mepnim`` script."""

import sys

from .cli import main

sys.exit(main())
