"""Brand entity linking for short e-commerce search queries.

The package resolves the brand behind a query in two ways that share one
vocabulary of types: a two-stage path (detect the brand mention, resolve
it by exact dictionary lookup or a mention-to-entity model, filter by
product type) and an end-to-end path that ranks entities for the whole
query with NIL in the label space.  A fusion wrapper runs both and
prefers the two-stage answer.

Import what you use from its submodule (``brandlink.pipeline``,
``brandlink.xmc`` and so on); the package root loads none of them.
"""

__version__ = "0.1.0"
