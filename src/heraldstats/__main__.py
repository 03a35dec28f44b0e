"""``python -m heraldstats``: the same command line as the ``heraldstats`` script."""

from .cli import run

run()
