"""``python -m losmimo``: the same command line as the ``losmimo`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
