"""wavelab: a numerical laboratory for unidirectional shallow-water waves."""

__version__ = "0.1.0"
