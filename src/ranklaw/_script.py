"""The `ranklaw` console script: cli.run(), with the collector off from before
cli, and numpy with it, is imported, so that their import runs no collection."""

import gc


def run() -> None:
    gc.disable()
    from . import cli
    cli.run()
