"""`python -m bhlab ...` runs the `bhlab` command."""

import sys

from .cli import main

sys.exit(main())
