"""`python -m skewcert`: the command-line interface of skewcert.cli."""

from .cli import main

if __name__ == "__main__":
    main()
