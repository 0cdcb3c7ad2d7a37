"""`python -m trimod ...`: the command line of `trimod.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
