"""Seeded benchmark inputs, each with its verdict known from construction.

Every generated dual pair ``(G, tr(G))`` comes once as built (DUAL) and
once perturbed (NOT_DUAL): an ``H`` edge dropped (a missing minimal
transversal) or enlarged (a non-minimal ``H`` edge).  The seed picks the
vertex relabelling and the perturbed edge; the structures themselves
(including the random pairs and the itemset relations) come from fixed
generator seeds, which keeps the summed timings comparable across
seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.hypergraph import Hypergraph
from repro.hypergraph import generators as gen
from repro.hypergraph import io as hgio
from repro.hypergraph.operations import relabel
from repro.itemsets import datasets
from repro.itemsets.borders import borders
from repro.itemsets.identification import identification_instance

#: The golden corpus, relative to the checkout root.
CORPUS = Path("tests") / "corpus"


@dataclass(frozen=True)
class Instance:
    """One duality instance and the verdict its construction fixes."""

    name: str
    g: Hypergraph
    h: Hypergraph
    dual: bool

    def fresh(self) -> tuple[Hypergraph, Hypergraph]:
        """New objects for ``G`` and ``H``: hypergraphs cache derived views,
        so each timed call gets copies nothing has solved before."""
        return (
            Hypergraph(self.g.edges, vertices=self.g.vertices),
            Hypergraph(self.h.edges, vertices=self.h.vertices),
        )


def _permute(g: Hypergraph, h: Hypergraph, rng: random.Random):
    """Relabel both sides by one seeded permutation of their universe."""
    labels = sorted(g.vertices | h.vertices, key=repr)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    return relabel(g, mapping), relabel(h, mapping)


def _prefix(g: Hypergraph, h: Hypergraph, tag: str):
    """Give both sides fresh string labels ``tag:<old>`` (a distinct key)."""
    mapping = {v: f"{tag}:{v}" for v in g.vertices | h.vertices}
    return relabel(g, mapping), relabel(h, mapping)


def retag(item: Instance, tag: str) -> Instance:
    """``item`` under fresh ``tag``-prefixed labels (same verdict)."""
    return Instance(item.name, *_prefix(item.g, item.h, tag), item.dual)


def _variants(name, g, h, rng: random.Random, enlarge: bool = False):
    """The pair as built (DUAL) and one seeded perturbation (NOT_DUAL)."""
    index = rng.randrange(len(h.edges))
    if enlarge:
        broken = gen.perturb_enlarge_edge(h, index)
    else:
        broken = gen.perturb_drop_edge(h, index)
    return [
        Instance(f"{name}/dual", g, h, True),
        Instance(f"{name}/not-dual", g, broken, False),
    ]


def _itemset_pair(seed: int):
    """A border-identification instance over a seeded basket relation."""
    relation = datasets.market_basket(n_items=12, n_rows=60, seed=seed)
    frequent, infrequent = borders(relation, 6)
    return identification_instance(relation, infrequent, frequent)


def corpus() -> list[Instance]:
    """The golden corpus with its manifest verdicts."""
    manifest = json.loads((CORPUS / "MANIFEST.json").read_text())
    out = []
    for name, entry in sorted(manifest.items()):
        g, h = hgio.load_many(CORPUS / entry["file"])
        out.append(Instance(f"corpus/{name}", g, h, entry["verdict"] == "dual"))
    return out


def engine_suite(seed: int) -> list[Instance]:
    """The ``engine-serial`` suite: threshold, matching, acyclic and
    random dual pairs, itemset identification instances, and the corpus."""
    rng = random.Random(f"engine-suite:{seed}")
    g, h = gen.threshold_dual_pair(9, 5)
    out = _variants("threshold-9-5", g, h, rng)
    for k in (5, 6):
        g, h = _permute(*gen.matching_dual_pair(k), rng)
        out += _variants(f"matching-{k}", g, h, rng)
    for k in (4, 5):
        g, h = _permute(*gen.acyclic_dual_pair(k), rng)
        out += _variants(f"acyclic-{k}", g, h, rng, enlarge=True)
    for i in range(6):
        g, h = _permute(*gen.random_dual_pair(10, 8, seed=i), rng)
        out += _variants(f"random-10-8.{i}", g, h, rng)
    for i in range(4):
        g, h = _permute(*_itemset_pair(i), rng)
        out += _variants(f"itemsets.{i}", g, h, rng)
    return out + corpus()


def parallel_suite(seed: int) -> dict[str, list[Instance]]:
    """The ``parallel-n2`` instances per sharded method: a subset of the
    engine suite's families on both sides of the pool-hop cost."""
    rng = random.Random(f"parallel-suite:{seed}")
    common: list[Instance] = []
    for n, k in ((9, 5), (10, 5)):
        common += _variants(f"threshold-{n}-{k}", *gen.threshold_dual_pair(n, k), rng)
    common += _variants("matching-6", *_permute(*gen.matching_dual_pair(6), rng), rng)
    common += _variants(
        "acyclic-5", *_permute(*gen.acyclic_dual_pair(5), rng), rng, enlarge=True
    )
    # threshold-11-6 is where fk-b is slower sharded than serial; bm
    # takes seconds on it, so bm stops at threshold-10-5.
    big = _variants("threshold-11-6", *gen.threshold_dual_pair(11, 6), rng)
    return {"bm": common, "fk-b": common + big, "logspace": common + big}


def batch(seed: int) -> list[Instance]:
    """The mid-size ``solve_many`` batch: three differently labelled
    copies of each pair, so no two items share a cache key."""
    rng = random.Random(f"batch:{seed}")
    out: list[Instance] = []
    for n, k in ((10, 5), (11, 6), (9, 4)):
        out += _variants(f"threshold-{n}-{k}", *gen.threshold_dual_pair(n, k), rng)
    out += _variants("matching-6", *_permute(*gen.matching_dual_pair(6), rng), rng)
    out += _variants(
        "acyclic-6", *_permute(*gen.acyclic_dual_pair(6), rng), rng, enlarge=True
    )
    return [retag(item, f"c{copy}") for copy in range(3) for item in out]


def wire_suite(seed: int, tag: str) -> list[Instance]:
    """The per-method suite the serve workloads send: small families
    plus the corpus, all under ``tag``-prefixed labels so each pass is a
    fresh set of cache keys."""
    rng = random.Random(f"wire-suite:{seed}")
    pairs = [
        ("matching-4", *_permute(*gen.matching_dual_pair(4), rng)),
        ("threshold-7-4", *gen.threshold_dual_pair(7, 4)),
        ("acyclic-4", *_permute(*gen.acyclic_dual_pair(4), rng)),
    ]
    for i in range(2):
        pairs.append((f"random-8-6.{i}", *_permute(*gen.random_dual_pair(8, 6, seed=i), rng)))
        pairs.append((f"itemsets.{i}", *_permute(*_itemset_pair(10 + i), rng)))
    out: list[Instance] = []
    for name, g, h in pairs:
        out += _variants(name, g, h, rng)
    out += corpus()
    return [retag(item, tag) for item in out]


def _small_templates(rng: random.Random) -> list[tuple[str, Hypergraph, Hypergraph]]:
    """Small dual pairs that requests are stamped from."""
    out = [
        ("matching-3", *gen.matching_dual_pair(3)),
        ("threshold-5-3", *gen.threshold_dual_pair(5, 3)),
        ("acyclic-3", *gen.acyclic_dual_pair(3)),
        ("threshold-6-3", *gen.threshold_dual_pair(6, 3)),
    ]
    for i in range(4):
        out.append((f"random-7-5.{i}", *_permute(*gen.random_dual_pair(7, 5, seed=i), rng)))
    return out


def request_stream(seed: int, count: int, tag: str) -> list[Instance]:
    """``count`` distinct small instances: templates under fresh labels
    (``tag`` namespaces them, so every request is a new cache key), half
    of them perturbed to NOT_DUAL."""
    rng = random.Random(f"requests:{tag}:{seed}")
    templates = _small_templates(rng)
    out = []
    for i in range(count):
        name, g, h = templates[rng.randrange(len(templates))]
        g, h = _prefix(g, h, f"{tag}{i}")
        dual, broken = _variants(f"{name}#{i}", g, h, rng, enlarge=rng.random() < 0.3)
        out.append(dual if rng.random() < 0.5 else broken)
    return out
