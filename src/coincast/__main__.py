"""``python -m coincast``: the same entry point as the ``coincast`` command."""
from .cli import entry

if __name__ == "__main__":
    entry()
