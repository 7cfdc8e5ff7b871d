"""repro — reproduction of "Predictable vFabric on Informative Data
Plane" (uFAB, SIGCOMM 2022).

Public API quickstart (the :class:`Scenario` builder)::

    from repro import Scenario

    result = (
        Scenario.testbed()
        .scheme("ufab")
        .tenants([("S1", "S5", 2.0)])
        .run(until=0.05)
    )
    print(result.delivered_bps)

The lower-level pieces remain public for custom wiring
(``registry.build`` is the one call that stands a scheme up)::

    from repro import Network, VMPair, three_tier_testbed
    from repro.baselines import registry

    net = Network(three_tier_testbed())
    fabric = registry.build("ufab", net)
    pair = VMPair("t1:S1->S5", vf="t1", src_host="S1", dst_host="S5", phi=2000)
    fabric.add_pair(pair)
    net.run(until=0.05)
    print(net.delivered_rate(pair.pair_id))

The core-switch controller behind uFAB has two backends
(:mod:`repro.core.controller`): ``Scenario....backend("pipeline")`` or
``--backend pipeline`` on any grid command runs the same agent
(:mod:`repro.core.corenode`, the default and the fast one) under the
Tofino hardware-rule checker of
:mod:`repro.core.p4pipe` — one algorithm, so probe payloads and traces
are bit-identical either way (see ``docs/API.md``).

Packages:

* :mod:`repro.core` — uFAB itself (edge agent, informative core, token
  assignment, probe format).
* :mod:`repro.sim` — the discrete-event fluid network simulator.
* :mod:`repro.baselines` — PicNIC', WCC/Swift, ElasticSwitch, Clove, ECMP.
* :mod:`repro.workloads` — traffic and application models.
* :mod:`repro.analysis` — metrics (CDFs, dissatisfaction, slowdown).
* :mod:`repro.resources` — hardware resource / overhead models.
* :mod:`repro.experiments` — one runner per paper figure/table.
"""

from repro.api import Scenario, ScenarioResult
from repro.core.controller import (
    attach_core_agents,
    backend_names,
    resolve_backend,
    use_backend,
)
from repro.core.edge import UFabFabric
from repro.core.fabric import Fabric
from repro.core.params import UFabParams
from repro.baselines.fabrics import ESCloveFabric, PWCFabric
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import (
    Topology,
    dumbbell,
    fat_tree,
    leaf_spine,
    parking_lot,
    three_tier_testbed,
)

__version__ = "1.0.0"

__all__ = [
    "Scenario",
    "ScenarioResult",
    "attach_core_agents",
    "backend_names",
    "resolve_backend",
    "use_backend",
    "Fabric",
    "UFabFabric",
    "UFabParams",
    "PWCFabric",
    "ESCloveFabric",
    "VMPair",
    "Network",
    "Topology",
    "dumbbell",
    "parking_lot",
    "leaf_spine",
    "fat_tree",
    "three_tier_testbed",
    "__version__",
]
