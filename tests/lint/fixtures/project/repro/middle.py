"""DET fixture: the laundering hop between source and sink.

The relative import also exercises the symbol table's level-1
``from .`` resolution.
"""

from .clockmod import read_clock


def stamp():
    return read_clock()
