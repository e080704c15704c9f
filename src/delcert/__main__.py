"""``python -m delcert``: the ``delcert`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
