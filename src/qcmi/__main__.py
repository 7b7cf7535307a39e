"""python -m qcmi: the qcmi command line (see qcmi.cli)."""

from .cli import run

if __name__ == "__main__":
    run()
