"""repro — reproduction of "Leveraging eBPF for programmable network
functions with IPv6 Segment Routing" (Xhonneux, Duchene, Bonaventure,
CoNEXT 2018).

The package provides, in pure Python:

* :mod:`repro.ebpf` — an eBPF virtual machine (ISA, assembler, verifier,
  interpreter, JIT, maps, helpers);
* :mod:`repro.net` — an IPv6/SRv6 network stack (packets, FIB with ECMP,
  ``seg6``/``seg6local`` lightweight tunnels including the paper's
  ``End.BPF`` action, and the SRv6 eBPF helpers);
* :mod:`repro.sim` — a discrete-event network simulator (links, netem,
  traffic generators, a reordering-sensitive TCP);
* :mod:`repro.lab` — the declarative network builder (topology, config
  plane, experiment runs) every scenario is constructed through;
* :mod:`repro.userspace` — the perf-event rings the daemons poll;
* :mod:`repro.usecases` — the paper's three applications: passive delay
  monitoring, hybrid access link aggregation, and ECMP-aware traceroute;
* :mod:`repro.progs` — the eBPF programs used throughout the evaluation.
"""

__version__ = "1.0.0"

from . import ebpf, lab, net, progs, sim, usecases, userspace

__all__ = ["ebpf", "lab", "net", "progs", "sim", "usecases", "userspace", "__version__"]
