"""Structure-preserving finite element schemes for curve diffusion of closed
planar curves: geometry, scheme engines, diagnostics and a CLI."""

__version__ = "0.1.0"
