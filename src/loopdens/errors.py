"""The one base class of every computation failure that exits 1."""


class ComputationError(Exception):
    """An exact or numeric computation could not finish correctly.

    Each route's error subclasses this and keeps its own standard base as a
    second base; the CLI turns any of them into exit 1 with one stderr line.
    """
