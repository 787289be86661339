"""Layer spans recorded from outside the package by wrapping module attributes.

Modules import some names directly: `relations` binds `decompose_to_mzv`
and the `build_constraints_*` builders, `series` binds `weak_orders` and the
builders, and `cli` reaches `relations` and `series` through module
attributes.  So every module's own binding is wrapped.  The coupled/plain
chain split and the Bareiss/mod-p split exist only as module-level helpers
(`series._chain_coupled`, `series._chain_plain`, `series._pow_vec`,
`relations._rank_bareiss`, `relations._rank_mod`), which are wrapped the
same way.  A binding that no longer exists is skipped, and every metric
that needs it is reported absent instead of failing the run.

A span is named `<defining module>.<function>`; its self time is its
duration minus the part its child spans cover.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

BUILDERS = ("build_constraints_S", "build_constraints_S_i",
            "build_constraints_S_ij", "build_constraints_T_i")
# The builders each module binds by name at this commit.
BUILDER_BINDINGS = {
    "relations": ("build_constraints_S_i", "build_constraints_S_ij"),
    "series": BUILDERS,
    "cli": BUILDERS,
}
EVALS = ("eval_mzf", "eval_mordell_tornheim", "eval_zeta_C", "eval_zeta_C_i",
         "eval_theorem_residual", "eval_zeta_tilde", "eval_zeta_tilde_harmonic")
RELATIONS = ("generate_relations", "cyclic_relation", "csf_relation",
             "relation_matrix", "rank_exact", "_rank_bareiss", "_rank_mod",
             "relation_set_loads")
SERIES = EVALS + ("_chain_plain", "_chain_coupled", "_pow_vec")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self.cached_weak_orders = None
        self.orders_by_system: dict = {}
        self.orders_evaluated = 0
        self.coupled_cells = 0
        self.ranked: list = []

    def wrap(self, module, attr: str, hook=None, tag: str | None = None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return None
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append([idx, 0.0])
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                _, covered = stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                spans[idx] = (name, start, end, parent[0] if parent else None)
                self.calls[name] += 1
                self.total[name] += dur
                self.self_s[name] += dur - covered
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self.wrapped.add(tag or name)
        return fn

    # -- hooks: counts taken where the work happens ------------------------

    def _orders(self, args, kwargs, result):
        self.orders_by_system[args[0] if args else kwargs["cs"]] = len(result)

    def _series_orders(self, args, kwargs, result):
        self._orders(args, kwargs, result)
        self.orders_evaluated += len(result)

    def _coupled(self, args, kwargs, result):
        n = args[1] if len(args) > 1 else kwargs["n_max"]
        self.coupled_cells += n * (n - 1) // 2

    def _rank(self, args, kwargs, result):
        self.ranked.append((args[0] if args else kwargs["matrix"], result))

    def install(self):
        from cycliczeta import cli, decompose, relations, series

        for mod in (relations, series, cli):
            for name in BUILDER_BINDINGS[mod.__name__.rsplit(".", 1)[-1]]:
                self.wrap(mod, name)
        fn = self.wrap(decompose, "weak_orders", self._orders)
        if fn is not None and hasattr(fn, "cache_info"):
            self.cached_weak_orders = fn
        self.wrap(series, "weak_orders", self._series_orders, tag="series:weak_orders")
        self.wrap(cli, "weak_orders", self._orders)
        for mod in (relations, cli):
            self.wrap(mod, "decompose_to_mzv")
        for name in RELATIONS:
            hook = self._rank if name == "rank_exact" else None
            self.wrap(relations, name, hook)
        for name in SERIES:
            self.wrap(series, name, self._coupled if name == "_chain_coupled" else None)
        self.wrap(cli, "main")

    # -- results -----------------------------------------------------------

    def _sum(self, table, *names: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(names))

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this run; a metric whose spans could not be
        wrapped is left out."""
        tot = lambda *n: self._sum(self.total, *n)  # noqa: E731
        slf = lambda *n: self._sum(self.self_s, *n)  # noqa: E731
        cnt = lambda *n: self._sum(self.calls, *n)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        has = lambda prefix: any(w.startswith(prefix) for w in self.wrapped)  # noqa: E731

        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit, *needs):
            """Report the metric when each need (a span-name prefix, or a
            tuple of alternatives) matches a wrapped binding."""
            if all(has(n) for n in needs):
                out[name] = (value, unit)

        build = "model.build_constraints_"
        put("model.build_calls", cnt(build), "count", build)
        put("model.build_s", tot(build), "s", build)
        put("model.self_s", slf("model."), "s", "model.")

        wo, dz = "decompose.weak_orders", "decompose.decompose_to_mzv"
        put("decompose.weak_orders_calls", cnt(wo), "count", wo)
        if self.cached_weak_orders is not None:
            info = self.cached_weak_orders.cache_info()
            put("decompose.weak_orders_hit_ratio",
                ratio(info.hits, info.hits + info.misses), "ratio", wo)
        put("decompose.orders_materialised", sum(self.orders_by_system.values()),
            "count", wo)
        put("decompose.weak_orders_s", tot(wo), "s", wo)
        put("decompose.decompose_calls", cnt(dz), "count", dz)
        put("decompose.decompose_self_s", slf(dz), "s", dz)
        put("decompose.self_s", slf("decompose."), "s", "decompose.")

        gen = ("relations.cyclic_relation", "relations.csf_relation")
        put("relations.relations_generated", cnt(*gen), "count", gen)
        put("relations.generate_self_s", slf(*gen), "s", gen)
        put("relations.matrix_s", tot("relations.relation_matrix"), "s",
            "relations.relation_matrix")
        rows = cols = distinct = rank = 0
        for matrix, r in self.ranked:
            rows += len(matrix.rows)
            cols += len(matrix.symbols)
            distinct += len({frozenset(row.items()) for row in matrix.rows})
            rank += r
        rk = "relations.rank_exact"
        put("relations.matrix_rows", rows, "count", rk)
        put("relations.matrix_cols", cols, "count", rk)
        put("relations.distinct_row_ratio", ratio(distinct, rows), "ratio", rk)
        put("relations.rank_yield", ratio(rank, rows), "ratio", rk)
        put("relations.rank_s", tot(rk), "s", rk)
        put("relations.rank_bareiss_s", tot("relations._rank_bareiss"), "s",
            "relations._rank_bareiss")
        put("relations.rank_modp_s", tot("relations._rank_mod"), "s",
            "relations._rank_mod")
        put("relations.parse_s", tot("relations.relation_set_loads"), "s",
            "relations.relation_set_loads")
        put("relations.self_s", slf("relations."), "s", "relations.")

        cc, cp, pv = "series._chain_coupled", "series._chain_plain", "series._pow_vec"
        put("series.eval_s", tot("series.eval_"), "s", "series.eval_")
        put("series.mt_s", tot("series.eval_mordell_tornheim"), "s",
            "series.eval_mordell_tornheim")
        put("series.chain_coupled_calls", cnt(cc), "count", cc)
        put("series.chain_coupled_s", tot(cc), "s", cc)
        put("series.coupled_cells", self.coupled_cells, "count", cc)
        put("series.coupled_cells_per_s", ratio(self.coupled_cells, tot(cc)), "1/s", cc)
        put("series.chain_plain_calls", cnt(cp), "count", cp)
        put("series.chain_plain_s", tot(cp), "s", cp)
        put("series.pow_vec_calls", cnt(pv), "count", pv)
        put("series.pow_vec_s", tot(pv), "s", pv)
        put("series.orders_evaluated", self.orders_evaluated, "count",
            "series:weak_orders")
        put("series.self_s", slf("series."), "s", "series.")

        put("cli.self_s", slf("cli."), "s", "cli.main")

        # The layers' own self time; the rest of wall_s is cli.self_s plus
        # what no span covers, so coverage near 1 confirms the layer map.
        layers_self = sum(v for k, v in self.self_s.items() if not k.startswith("cli."))
        put("trace.coverage", ratio(layers_self, wall_s), "ratio", "cli.main")
        put("trace.decompose_share", ratio(tot(wo) + slf(dz), wall_s), "ratio", wo, dz)
        put("trace.rank_share", ratio(tot(rk), wall_s), "ratio", rk)
        put("trace.chain_coupled_share", ratio(tot(cc), wall_s), "ratio", cc)
        return out

    def dump(self, path: Path):
        """Write every span: name, start and end (seconds from the tracer's
        start), parent span index, and the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        o = self.origin
        path.write_text(json.dumps({
            "run": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "missing": self.missing,
            "spans": [[n, s - o, e - o, p] for n, s, e, p in self.spans],
        }))
