"""python -m qnslab: the qnslab command line (run, verify, sweep, report)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
