"""``python -m lpmln``: the command-line interface of ``lpmln.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
