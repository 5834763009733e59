"""`python -m rrsitr`: the rrsitr command line, as cli.main runs it. Importing
the CLI loads no numpy, so cli.main still pins BLAS to one thread before
numpy loads."""
import sys

from .cli import main

sys.exit(main())
