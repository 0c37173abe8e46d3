"""Cross-view geo-localization: order-invariant global descriptors,
ranking losses, a descriptor-distance measurement model over a tessellated
map, and a particle-filter tracking loop with a scenario simulator.

The package root exports only ``__version__``; import from the submodules
(``cvloc.mapgrid``, ``cvloc.retrieval``, ``cvloc.simulate``, ...)."""

__version__ = "0.1.0"
