"""Reusable topology classes, in the mininet ``Topo.build()`` idiom.

Subclass :class:`Topo`, override :meth:`Topo.build`, and declare the
scenario with the builder calls on ``self.net``::

    class Diamond(Topo):
        def build(self, paths: int = 2):
            self.net.add_node("C", addr="fc00:c::1")
            self.net.add_node("T", addr="fc00:f::1")
            ...

    topo = Diamond(paths=3, seed=7)
    topo.net.run(until_ns=NS_PER_SEC)

Constructor keyword arguments are forwarded to ``build()``, so a
topology class doubles as a parameterised scenario family — the same
shape mininet gave real testbeds.
"""

from __future__ import annotations

from .network import Network


class Topo:
    """Base class: owns (or receives) a :class:`Network` and builds into it."""

    def __init__(self, net: Network | None = None, *, seed: int | None = None, **params):
        if net is not None and seed is not None:
            raise ValueError(
                "pass either an existing net= (which carries its own seed) "
                "or seed= for a fresh Network, not both"
            )
        self.net = net if net is not None else Network(seed=seed)
        self.params = dict(params)
        self.build(**params)

    def build(self, **params) -> None:
        """Override: declare nodes, links and config for this topology."""
