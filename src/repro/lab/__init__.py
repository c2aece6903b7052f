"""repro.lab — the declarative network builder (NetLab).

One API for the three things every experiment in this repository needs:

* **topology** — :class:`Network.add_node` / :class:`Network.add_link`
  auto-create devices, assign addresses and wire links onto one shared
  scheduler; :meth:`Network.netem` and :meth:`Network.cpu` attach netem
  qdiscs and CPU cost models;
* **configuration** — :meth:`Network.config` routes every command
  through the :class:`~repro.net.iproute.IpRoute` textual front-end
  (``ip -6 route add/del/replace/show``), so a scenario's config is the
  operator syntax of the paper's testbed;
* **experiment runs** — :meth:`Network.trafgen`, :meth:`Network.sink`,
  :meth:`Network.tcp` and :meth:`Network.run` replace ad-hoc scheduler
  plumbing, and ``Network(seed=N)`` makes a run bit-reproducible end to
  end.

:class:`Topo` is the mininet-style reusable-topology base class;
:class:`Setup1Topo`/:class:`Setup2Topo` declare the paper's two lab
setups on top of it.
"""

from .network import Network
from .setups import (
    PAPER_LINK0,
    PAPER_LINK1,
    SETUP2_IGP_COSTS,
    HybridLinkSpec,
    Setup1,
    Setup1Topo,
    Setup2,
    Setup2Topo,
    build_setup1,
    build_setup2,
)
from .topo import Topo

__all__ = [
    "HybridLinkSpec",
    "Network",
    "PAPER_LINK0",
    "PAPER_LINK1",
    "SETUP2_IGP_COSTS",
    "Setup1",
    "Setup1Topo",
    "Setup2",
    "Setup2Topo",
    "Topo",
    "build_setup1",
    "build_setup2",
]
