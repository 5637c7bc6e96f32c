"""Closed-form and numerical solutions of
(1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y = 0."""

__version__ = "0.1.0"
