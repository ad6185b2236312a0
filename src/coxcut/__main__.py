"""Command-line entry point: ``python -m coxcut <command> [options]``."""

from .cli import main

if __name__ == "__main__":
    main()
