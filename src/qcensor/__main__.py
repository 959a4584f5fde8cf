"""``python -m qcensor``: the same command line as the ``qcensor`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
