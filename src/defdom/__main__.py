"""`python -m defdom`: the same command line as the `defdom` script."""

import sys

from defdom.cli import main

if __name__ == "__main__":
    sys.exit(main())
