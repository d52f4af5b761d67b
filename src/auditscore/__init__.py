"""Security tool report scoring and aggregation.

Parsers turn each scanner's native report into raw metrics, the scoring
layer normalizes every tool onto a 0-100 scale and combines the six
scores into a weighted composite, and the analysis layer decomposes
composite changes and classifies per-tool trends across hardening levels.
Each name is imported from the module that defines it, for example
``from auditscore.parsers import parse_aide``; importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
