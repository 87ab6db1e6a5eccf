"""Run the command-line pipeline: ``python -m corename <subcommand> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
