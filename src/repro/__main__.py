"""``python -m repro`` entry point."""

import sys

from repro.cli import entry

if __name__ == "__main__":
    sys.exit(entry())
