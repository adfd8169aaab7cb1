"""Rule catalogue: importing this package registers every built-in rule.

See docs/STATIC_ANALYSIS.md for the catalogue, the audit behind it and
how to add a rule:

========  ==============================================================
ORD       no iteration over sets or unsorted filesystem listings
========  ==============================================================
"""

from repro.analysis.static.rules.ordering import OrderingRule

__all__ = ["OrderingRule"]
