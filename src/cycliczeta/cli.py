"""Command-line surface: evaluation, domain checks, decomposition, relation
generation, exact ranks, and the rank table.

Exit-code contract (stable): 0 success, 2 domain violation, 3 parse/usage
error, 4 budget cap exceeded, 5 non-admissible symbol or internal invariant
violated.

Output is JSON by default; CSV covers the flat tables (table1, eval
refinement lists); text is a human-readable rendering.  `relations` caches
its sets under --cache-dir (or $MZF_CACHE_DIR) keyed by a content hash of
the generation settings and the code versions; cache hits are
byte-identical to cold runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__, series
from . import relations as rel_mod
from .decompose import count_lattice_points, decompose_to_mzv, weak_orders
from .errors import (
    BudgetError,
    DomainError,
    InternalInvariantError,
    NonAdmissibleError,
    ParseError,
)
from .model import (
    EXTRA,
    ComplexArgs,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
    parse_complex,
    w_inequalities,
)

CACHE_ENV = "MZF_CACHE_DIR"


@dataclass
class RunConfig:
    out_format: str
    max_cutoff: int | None
    max_weight: int
    max_rows: int

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        def budget(name: str, default):
            # An explicit 0 is a budget of 0, not "use the default".
            value = getattr(args, name, None)
            if value is None:
                return default
            if value < 0:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"{flag} must be >= 0, got {value}")
            return value

        return cls(
            out_format=getattr(args, "format", "json") or "json",
            max_cutoff=budget("budget_max_n", None),
            max_weight=budget("budget_max_weight", rel_mod.MAX_WEIGHT_BUDGET),
            max_rows=budget("budget_max_rows", rel_mod.MAX_ROWS_BUDGET),
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _bool_flag(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"expected a boolean, got {text!r}")


def build_parser() -> _Parser:
    p = _Parser(prog="cycliczeta", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def formats(sp, *choices):
        sp.add_argument("--format", choices=choices, default="json")

    ev = sub.add_parser("eval", help="evaluate a truncated series")
    ev.add_argument("--kind", required=True,
                    choices=("mzf", "zeta-tilde", "zeta-c", "mt", "theorem"))
    ev.add_argument("--shape", default=None)
    ev.add_argument("--s", required=True)
    ev.add_argument("--N", type=int, default=None)
    ev.add_argument("--N-list", dest="n_list", default=None)
    ev.add_argument("--i", type=int, default=None)
    ev.add_argument("--j", type=int, default=None)
    ev.add_argument("--variant", default="diff",
                    choices=("1", "2", "diff", "h1", "h2"))
    ev.add_argument("--budget-max-n", type=int, default=None)
    formats(ev, "json", "csv", "text")

    dm = sub.add_parser("domain", help="membership verdict with margins")
    dm.add_argument("--shape", default=None)
    dm.add_argument("--s", required=True)
    formats(dm, "json", "text")

    rl = sub.add_parser("relations", help="generate a relation set file")
    rl.add_argument("--weight", type=int, required=True)
    rl.add_argument("--family", required=True, choices=rel_mod.FAMILIES)
    rl.add_argument("--out", required=True)
    rl.add_argument("--include-d1-derivation", type=_bool_flag, default=True)
    rl.add_argument("--budget-max-weight", type=int, default=None)
    rl.add_argument("--budget-max-rows", type=int, default=None)
    rl.add_argument("--cache-dir", default=None)
    formats(rl, "json", "text")

    rk = sub.add_parser("rank", help="exact rank of a relation set file")
    rk.add_argument("--in", dest="infile", required=True)
    formats(rk, "json", "text")

    tb = sub.add_parser("table1", help="independent-relation counts per weight")
    tb.add_argument("--max-weight", type=int, required=True)
    tb.add_argument("--families", nargs="*", default=list(rel_mod.FAMILIES),
                    choices=rel_mod.FAMILIES)
    tb.add_argument("--include-d1-derivation", type=_bool_flag, default=True)
    tb.add_argument("--budget-max-weight", type=int, default=None)
    tb.add_argument("--budget-max-rows", type=int, default=None)
    formats(tb, "json", "csv", "text")

    dc = sub.add_parser("decompose", help="rewrite a constrained sum into symbols")
    dc.add_argument("--shape", required=True)
    dc.add_argument("--set", dest="setname", required=True,
                    choices=("S", "S_i", "S_ij", "T_i"))
    dc.add_argument("--i", type=int, default=None)
    dc.add_argument("--j", type=int, default=None)
    dc.add_argument("--exponents", default=None)
    dc.add_argument("--count", action="store_true")
    dc.add_argument("--N", type=int, default=None)
    formats(dc, "json", "text")
    return p


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _plan_from_args(args) -> series.TruncationPlan:
    refinements = None
    if args.n_list:
        try:
            refinements = tuple(int(x) for x in args.n_list.split(","))
        except ValueError:
            raise ParseError(f"bad --N-list {args.n_list!r}") from None
        if not refinements:
            raise ParseError("--N-list is empty")
    cutoff = args.N if args.N is not None else (refinements[-1] if refinements else None)
    if cutoff is None:
        raise ParseError("one of --N or --N-list is required")
    try:
        return series.TruncationPlan(cutoff, refinements)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_flat_complex(text: str) -> list[complex]:
    entries = [e for e in re.split(r"[;,]", text) if e.strip()]
    if not entries:
        raise ParseError("empty argument list")
    return [parse_complex(e) for e in entries]


def _parse_args_with_shape(args) -> ComplexArgs:
    # The canonical form separates blocks with ';', but a flat comma list is
    # accepted whenever --shape pins the block structure.
    shape = Shape.parse(args.shape.replace(";", ",")) if args.shape else None
    if shape is None:
        return ComplexArgs.parse(args.s)
    try:
        return ComplexArgs.parse(args.s, shape)
    except ParseError:
        vals = _parse_flat_complex(args.s)
        if len(vals) != shape.total_depth:
            raise
        return ComplexArgs(shape, tuple(vals))


def _report_text(rep: series.EvalReport) -> str:
    lines = [f"value = {rep.value.real!r} + {rep.value.imag!r}i  (N = {rep.cutoff})"]
    if rep.refinements:
        for n, v in rep.refinements:
            lines.append(f"  N={n}: {v.real!r} + {v.imag!r}i")
    lines.append(f"residual estimate = {rep.residual!r}")
    return "\n".join(lines)


def _report_csv(rep: series.EvalReport) -> str:
    rows = ["N,re,im"]
    for n, v in rep.refinements or [(rep.cutoff, rep.value)]:
        rows.append(f"{n},{v.real!r},{v.imag!r}")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(args, cfg: RunConfig) -> int:
    plan = _plan_from_args(args)
    kind = args.kind
    if kind == "mzf":
        rep = series.eval_mzf(_parse_flat_complex(args.s), plan,
                              max_cutoff=cfg.max_cutoff)
    elif kind == "mt":
        vals = _parse_flat_complex(args.s)
        if len(vals) != 3:
            raise ParseError("--kind mt needs exactly three arguments")
        rep = series.eval_mordell_tornheim(*vals, plan, max_cutoff=cfg.max_cutoff)
    else:
        s = _parse_args_with_shape(args)
        try:
            if kind == "zeta-tilde":
                if args.i is None or args.j is None:
                    raise ParseError("--kind zeta-tilde needs --i and --j")
                if args.variant in ("h1", "h2"):
                    rep = series.eval_zeta_tilde_harmonic(
                        s, args.i, args.j, int(args.variant[1]), plan,
                        max_cutoff=cfg.max_cutoff)
                else:
                    rep = series.eval_zeta_tilde(
                        s, args.i, args.j, args.variant, plan,
                        max_cutoff=cfg.max_cutoff)
            elif kind == "zeta-c":
                if args.i is not None:
                    rep = series.eval_zeta_C_i(s, args.i, plan, max_cutoff=cfg.max_cutoff)
                else:
                    rep = series.eval_zeta_C(s, plan, max_cutoff=cfg.max_cutoff)
            else:  # theorem
                rep = series.eval_theorem_residual(s, plan, max_cutoff=cfg.max_cutoff)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    if kind == "theorem":
        if cfg.out_format == "json":
            _emit(json.dumps(rep.to_json_obj(), indent=2))
        elif cfg.out_format == "csv":
            rows = ["N,lhs_re,lhs_im,rhs_re,rhs_im,residual"]
            for n, l, r, q in rep.refinements or [
                (rep.cutoff, rep.lhs, rep.rhs, rep.residual)
            ]:
                rows.append(f"{n},{l.real!r},{l.imag!r},{r.real!r},{r.imag!r},{q!r}")
            _emit("\n".join(rows))
        else:
            lines = [
                f"lhs = {rep.lhs!r}",
                f"rhs = {rep.rhs!r}",
                f"residual = {rep.residual!r}  (N = {rep.cutoff})",
            ]
            if rep.refinements:
                for n, _, _, q in rep.refinements:
                    lines.append(f"  N={n}: residual {q!r}")
            _emit("\n".join(lines))
        return 0
    if cfg.out_format == "json":
        _emit(json.dumps(rep.to_json_obj(), indent=2))
    elif cfg.out_format == "csv":
        _emit(_report_csv(rep))
    else:
        _emit(_report_text(rep))
    return 0


def cmd_domain(args, cfg: RunConfig) -> int:
    s = _parse_args_with_shape(args)
    qs = w_inequalities(s)
    inside = all(q.ok for q in qs)
    if cfg.out_format == "json":
        _emit(json.dumps({
            "inside": inside,
            "inequalities": [
                {
                    "label": q.label,
                    "value": q.value,
                    "threshold": q.threshold,
                    "strict": q.strict,
                    "ok": q.ok,
                }
                for q in qs
            ],
        }, indent=2))
    else:
        verdict = "inside W" if inside else "outside W"
        first_bad = next((q for q in qs if not q.ok), None)
        head = verdict if first_bad is None else f"{verdict}: {first_bad.describe()}"
        lines = [head]
        for q in qs:
            lines.append(
                ("  ok   " if q.ok else "  FAIL ")
                + q.describe()
                + f"  (margin {q.value - q.threshold:+g})"
            )
        _emit("\n".join(lines))
    return 0


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cache_path(args) -> Path | None:
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    # The code versions are part of the key, so sets cached by older code
    # are never read back.
    key = json.dumps(
        {"version": __version__, "generator": rel_mod.GENERATOR_VERSION,
         "weight": args.weight, "family": args.family,
         "include_d1_derivation": args.include_d1_derivation},
        sort_keys=True,
    )
    h = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"relations-w{args.weight}-{args.family}-{h}.json"


def _cache_valid(data: bytes, weight: int, family: str) -> bool:
    """A hit must parse as a relation set of the requested weight and family."""
    try:
        obj = json.loads(data)
        rel_mod.relation_matrix_from_json_obj(obj)
    except (ValueError, ParseError):
        return False
    return obj.get("weight") == weight and obj.get("family") == family


def cmd_relations(args, cfg: RunConfig) -> int:
    include_d1 = args.include_d1_derivation
    cache = _cache_path(args)
    data = None
    cached = False
    if cache is not None and cache.exists():
        blob = cache.read_bytes()
        if _cache_valid(blob, args.weight, args.family):
            data, cached = blob, True
        else:
            print(f"warning: corrupt cache entry {cache}, recomputing",
                  file=sys.stderr)
    if data is None:
        rels = rel_mod.generate_relations(
            args.weight, args.family, include_d1_derivation=include_d1,
            max_weight_budget=cfg.max_weight, max_rows_budget=cfg.max_rows)
        obj = rel_mod.relation_set_to_json_obj(
            args.weight, args.family, rels,
            settings={"include_d1_derivation": include_d1, "schema": 1})
        data = (json.dumps(obj, indent=2) + "\n").encode()
        if cache is not None:
            _atomic_write(cache, data)
    out = Path(args.out)
    _atomic_write(out, data)
    obj = json.loads(data)
    summary = {
        "out": str(out),
        "weight": args.weight,
        "family": args.family,
        "rows": len(obj["rows"]),
        "symbols": len(obj["symbols"]),
        "cached": cached,
    }
    if cfg.out_format == "json":
        _emit(json.dumps(summary, indent=2))
    else:
        _emit(
            f"wrote {summary['rows']} relations over {summary['symbols']} symbols "
            f"to {out}" + (" (cache hit)" if cached else "")
        )
    return 0


def cmd_rank(args, cfg: RunConfig) -> int:
    path = Path(args.infile)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    matrix = rel_mod.relation_set_loads(text)
    rank = rel_mod.rank_exact(matrix)
    if cfg.out_format == "json":
        _emit(json.dumps({"rank": rank, "rows": matrix.shape[0],
                          "symbols": matrix.shape[1]}, indent=2))
    else:
        _emit(str(rank))
    return 0


def cmd_table1(args, cfg: RunConfig) -> int:
    # A --max-weight below 3 is passed on as the one weight, which table1
    # refuses.
    weights = range(min(3, args.max_weight), args.max_weight + 1)
    families = list(args.families or rel_mod.FAMILIES)
    table = rel_mod.table1(weights, families,
                           include_d1_derivation=args.include_d1_derivation,
                           max_weight_budget=cfg.max_weight,
                           max_rows_budget=cfg.max_rows)

    if cfg.out_format == "json":
        obj = {
            "note": "all_ref is a stored reference count, not computed",
            "rows": [{"weight": w, **table[w]} for w in weights],
        }
        _emit(json.dumps(obj, indent=2))
    elif cfg.out_format == "csv":
        header = ["weight"] + families + ["all_relations(ref)"]
        rows = [",".join(header)]
        for w in weights:
            rows.append(
                ",".join([str(w)] + [str(table[w][f]) for f in families]
                         + [str(table[w]["all_ref"])])
            )
        _emit("\n".join(rows))
    else:
        names = {"csf": "cyclic sum formula", "derivation": "derivation relation",
                 "cyclic": "cyclic relation"}
        width = max(len("all relations (ref)"), *(len(names[f]) for f in families))
        lines = [f"{'weight':<{width}}" + "".join(f"{w:>6d}" for w in weights)]
        for f in families:
            lines.append(
                f"{names[f]:<{width}}"
                + "".join(f"{table[w][f]:>6d}" for w in weights)
            )
        lines.append(
            f"{'all relations (ref)':<{width}}"
            + "".join(f"{table[w]['all_ref']:>6d}" for w in weights)
        )
        _emit("\n".join(lines))
    return 0


_EXP_KEY = re.compile(r"^(n)$|^n(\d+)_(\d+)$")


def _parse_exponents(text: str, variables) -> dict[VarId, int]:
    out: dict[VarId, int] = {}
    for tok in re.split(r"[,\s]+", text.strip()):
        if not tok:
            continue
        if ":" not in tok:
            raise ParseError(f"bad exponent entry {tok!r} (expected key:value)")
        key, _, val = tok.partition(":")
        m = _EXP_KEY.match(key.strip())
        if not m:
            raise ParseError(f"bad exponent key {key!r} (use n or n<i>_<j>)")
        var = EXTRA if m.group(1) else VarId.block(int(m.group(2)), int(m.group(3)))
        try:
            out[var] = int(val)
        except ValueError:
            raise ParseError(f"bad exponent value {val!r}") from None
        if out[var] < 0:
            raise ParseError(f"exponent of {var} must be >= 0, got {out[var]}")
    missing = [v for v in variables if v not in out]
    if missing:
        raise ParseError(
            "missing exponents for " + ", ".join(str(v) for v in missing)
        )
    return out


def cmd_decompose(args, cfg: RunConfig) -> int:
    shape = Shape.parse(args.shape)
    try:
        if args.setname == "S":
            cs = build_constraints_S(shape)
        elif args.setname == "S_i":
            if args.i is None:
                raise ParseError("--set S_i needs --i")
            cs = build_constraints_S_i(shape, args.i)
        elif args.setname == "S_ij":
            if args.i is None or args.j is None:
                raise ParseError("--set S_ij needs --i and --j")
            cs = build_constraints_S_ij(shape, args.i, args.j)
        else:
            if args.i is None:
                raise ParseError("--set T_i needs --i")
            cs = build_constraints_T_i(shape, args.i)
    except ValueError as exc:
        raise ParseError(str(exc)) from None

    if args.count:
        if args.N is None:
            raise ParseError("--count needs --N")
        if args.N < 0:
            raise ParseError(f"--N must be >= 0, got {args.N}")
        n = count_lattice_points(cs, args.N)
        if cfg.out_format == "json":
            _emit(json.dumps({"count": n, "N": args.N,
                              "constraints": [str(c) for c in cs.constraints]}))
        else:
            _emit(str(n))
        return 0

    if args.exponents is None:
        raise ParseError("--exponents is required unless --count is given")
    exps = _parse_exponents(args.exponents, cs.variables)
    combo = decompose_to_mzv(cs, exps)
    orders = weak_orders(cs)
    if cfg.out_format == "json":
        _emit(json.dumps({
            "weak_orders": len(orders),
            "combination": combo.to_json_obj(),
            "constraints": [str(c) for c in cs.constraints],
        }, indent=2))
    else:
        _emit(f"{len(orders)} weak orders\n{combo}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.from_args(args)
        handler = {
            "eval": cmd_eval,
            "domain": cmd_domain,
            "relations": cmd_relations,
            "rank": cmd_rank,
            "table1": cmd_table1,
            "decompose": cmd_decompose,
        }[args.command]
        return handler(args, cfg)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except NonAdmissibleError as exc:
        detail = f" (partition {exc.partition})" if exc.partition is not None else ""
        print(f"non-admissible symbol: {exc}{detail}", file=sys.stderr)
        return 5
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
