"""The program names that the benchmark in ``perfbench/`` wraps or reads.

The benchmark runs on one Python in CI; this test runs on every Python the
suite runs on, so a change that removes or renames one of those names fails
here as well.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, program, stale, tracer  # noqa: E402
from perfbench.workloads import LoopProbe  # noqa: E402

# the dartlab this suite tests, under the names perfbench.program.load gives
MODULES = {name: importlib.import_module(f"dartlab.{name}") for name in program.MODULES}


def test_every_span_installs_and_a_stale_network_runs_through_them():
    engine = MODULES["engine"]
    run = engine._Simulation.run
    t = tracer.Tracer()
    counts = dict.fromkeys(layers.COUNTERS, 0)
    probe = LoopProbe()
    with tracer.Patches() as p:
        layers.install(MODULES, t, counts, p, extra={"engine.loop": probe.wrap})
        assert set(t.stats) == {span for span, _, _ in layers.SPANS}
        net = stale.build(MODULES, stale.plan(MODULES, 0, 0))
        report = stale.simulate(MODULES, net)
    assert engine._Simulation.run is run  # the patches are undone
    assert report.requests == len(net.requests) and report.delivered > 0
    (loop,) = probe.loops
    assert loop.events > 0 and loop.nonces == 0  # DART routers keep no nonces
    assert t.stats["engine.loop"].calls == 1
    assert t.stats["dart_node.on_local_interest"].calls >= len(net.requests)
    # the leg-reuse counter wraps this handler and reads table_size()
    assert t.stats["dart_node.on_neighbor_interest"].calls > 0
    assert t.stats["routing.inject_stale_distances"].calls == 1


def test_the_names_read_outside_the_spans_exist():
    # perfbench/run.py drains the request stream; the loop probe counts an
    # NDN router's nonces with a default, so only this test sees them go
    engine, routing = MODULES["engine"], MODULES["routing"]
    spec = engine.WorkloadSpec(1.2, 10, 50.0, 1.0, 0)
    assert sum(1 for _ in engine.generate_workload(spec, ["c.a", "c.b"])) > 0
    ndn = MODULES["ndn_node"].NdnRouter("a", routing.Fib({}))
    assert len(ndn.seen_nonces) == 0
