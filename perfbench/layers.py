"""The per-layer view: which program functions are wrapped, under which
span names, plus the two counters that turn call counts into ratios and
that the program does not keep itself (loop refusals and NDN aggregation
come from the program's own reports).

Span names are ``<module>.<function>`` for the modules of ``src/dartlab``.
Two names differ from the attribute they wrap: ``engine.loop`` is
``_Simulation.run`` (the event loop: heap, dispatch, emission routing,
audits and chain threading are its self time) and
``engine.build_simulation`` is ``_Simulation.__init__`` (router objects,
catalog preload, workload generator primed).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracer import Patches, Tracer

# (span name, module, attribute path inside the module)
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.loop", "engine", "_Simulation.run"),
    ("engine.build_simulation", "engine", "_Simulation.__init__"),
    ("engine.sample_table_sizes", "engine", "sample_table_sizes"),
    ("dart_node.on_local_interest", "dart_node", "DartRouter.on_local_interest"),
    ("dart_node.on_neighbor_interest", "dart_node", "DartRouter.on_neighbor_interest"),
    ("dart_node.on_data", "dart_node", "DartRouter.on_data"),
    ("dart_node.on_nack", "dart_node", "DartRouter.on_nack"),
    ("dart_node.evict_darts", "dart_node", "DartRouter.evict_darts"),
    ("dart_node.dear_check", "dart_node", "DartRouter.dear_check"),
    ("ndn_node.on_interest", "ndn_node", "NdnRouter.on_interest"),
    ("ndn_node.on_data", "ndn_node", "NdnRouter.on_data"),
    ("ndn_node.on_nack", "ndn_node", "NdnRouter.on_nack"),
    ("ndn_node.expire_pit", "ndn_node", "NdnRouter.expire_pit"),
    ("routing.Topology.delay", "routing", "Topology.delay"),
    ("routing.Fib.lookup", "routing", "Fib.lookup"),
    ("routing.generate_topology", "routing", "generate_topology"),
    ("routing.compute_fibs", "routing", "compute_fibs"),
    ("routing.override_rankings", "routing", "override_rankings"),
    ("routing.inject_stale_distances", "routing", "inject_stale_distances"),
    ("model.ContentStore.get", "model", "ContentStore.get"),
    ("model.ContentStore.cache", "model", "ContentStore.cache"),
    ("model.ContentStore.add_owned", "model", "ContentStore.add_owned"),
    ("experiment.build_topology", "experiment", "build_topology"),
    ("experiment.build_catalog", "experiment", "build_catalog"),
    ("experiment.run_cell", "experiment", "run_cell"),
    ("experiment.run_experiment", "experiment", "run_experiment"),
    ("experiment.write_rows", "experiment", "write_rows"),
    ("experiment.compare_dir", "experiment", "compare_dir"),
    ("cli.main", "cli", "main"),
)

# counts observed at the wrapped boundaries
COUNTERS = ("store_hits", "leg_reuse")


def _resolve(modules, module: str, path: str):
    owner = modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(modules, tracer: Tracer, counts: Dict[str, int], patches: Patches,
            extra: Dict[str, object] = None):
    """Wrap every function in SPANS.  ``extra`` maps a span name to an
    inner replacement (for example the loop probe) that the span wraps
    instead of the original."""
    extra = extra or {}
    Interest = modules["model"].Interest

    def count_store_hits(get):
        def get_counted(self, name):
            data = get(self, name)
            if data is not None:
                counts["store_hits"] += 1
            return data
        return get_counted

    def count_neighbor_interest(handler):
        def handled(self, sender, interest, now):
            before = self.table_size()
            ems = handler(self, sender, interest, now)
            if (len(ems) == 1 and type(ems[0].message) is Interest
                    and self.table_size() == before):
                counts["leg_reuse"] += 1
            return ems
        return handled

    counting = {
        "model.ContentStore.get": count_store_hits,
        "dart_node.on_neighbor_interest": count_neighbor_interest,
    }
    mods = list(modules.values())
    for span, module, path in SPANS:
        owner, attr = _resolve(modules, module, path)
        inner = extra.get(span) or counting.get(span)

        def make(orig, span=span, inner=inner):
            return tracer.wrap(span, inner(orig) if inner else orig)

        if isinstance(owner, type):
            patches.attribute(owner, attr, make)
        else:
            orig = getattr(owner, attr)
            patches.function(mods, orig, make(orig))


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span, _, _ in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    out += [
        ("engine.events", "count"),
        ("engine.fail_ratio", "ratio"),
        ("engine.generate_workload.items_per_s", "1/s"),
        ("dart_node.leg_reuse_ratio", "ratio"),
        ("dart_node.loop_refusals", "count"),
        ("ndn_node.aggregation_ratio", "ratio"),
        ("ndn_node.seen_nonces_end", "count"),
        ("model.ContentStore.hit_ratio", "ratio"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.wrapper_us_per_call", "us"),
    ]
    return out
