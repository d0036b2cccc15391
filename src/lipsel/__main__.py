"""`python -m lipsel`: the command-line interface, without installing."""

import sys

from lipsel.cli import main

if __name__ == "__main__":
    sys.exit(main())
