"""``python -m qcompat``: the same command line as the ``qcompat`` script."""

from .cli import main

if __name__ == "__main__":
    main()
