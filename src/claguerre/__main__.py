"""``python -m claguerre``: the same command as the ``claguerre`` script."""

from claguerre.cli import run

if __name__ == "__main__":
    run()
