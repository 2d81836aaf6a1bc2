"""`python -m debris_ews`: the debris-ews command line, for a checkout that is on
PYTHONPATH but not installed."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
