"""`python3 -m nimbus ARGS` runs the nimbus command line."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
