"""qdiffusion: a verified numerical laboratory for the single-mode diffusion channel.

Density operators are pushed through the channel by the Kraus sum, the
closed-form evolved states and the paper's two integral-form solutions, and
cross-checked against a direct master-equation integrator and the channel's
classical phase-space correspondence.  The integral forms evaluate the same
normally ordered expressions as the closed forms, so only the Kraus sum and
the integrator are independent of them.  The API is imported from the
submodules (qdiffusion.fock, qdiffusion.channel, ...).
"""

__version__ = "0.1.0"
