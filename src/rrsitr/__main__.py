"""`python -m rrsitr`: the rrsitr command line, as cli.main runs it. Importing
the CLI loads no numpy, so --threads still takes effect."""
import sys

from .cli import main

sys.exit(main())
