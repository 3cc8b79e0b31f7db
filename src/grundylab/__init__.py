"""Grundy values of coin-turning games on finite partially ordered sets.

Import each name from the module that defines it (`grundylab.games`,
`grundylab.poset`, ...); importing the package itself loads no submodule.
"""

__version__ = "0.1.0"
