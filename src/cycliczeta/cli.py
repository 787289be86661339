"""Command-line surface: evaluation, domain checks, decomposition, relation
generation, exact ranks, and the rank table.

Exit-code contract (stable): 0 success, 2 domain violation, 3 parse/usage
error, 4 budget cap exceeded, 5 non-admissible symbol or internal invariant
violated.

Output is JSON by default; CSV covers the flat tables (table1, eval
refinement lists); text is a human-readable rendering.  `relations` caches
its sets under --cache-dir (or $MZF_CACHE_DIR) keyed by a content hash of
the weight, the family and the code versions; cache hits are
byte-identical to cold runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from . import __version__, series
from . import relations as rel_mod
from .decompose import count_lattice_points, decompose_to_mzv
# Unused here, but perfbench/tracing.py wraps this binding until the library counts its own calls.
from .decompose import weak_orders  # noqa: F401
from .errors import (
    BudgetError,
    DomainError,
    InternalInvariantError,
    NonAdmissibleError,
    ParseError,
)
from .model import (
    ComplexArgs,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
    first_failure,
    w_inequalities,
)

CACHE_ENV = "MZF_CACHE_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


_INT = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """The type of every integer flag: an optional sign and ASCII digits,
    with surrounding spaces (int() also reads '_' digit groups and the
    digits of other scripts)."""
    if not _INT.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(
            f"bad integer {text!r}: only an optional sign and ASCII digits are read")
    return int(text)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    `main` call: parse_args keeps no state in it, and its defaults are
    immutable."""
    p = _Parser(prog="cycliczeta", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def formats(sp, *choices):
        sp.add_argument("--format", choices=choices, default="json")

    def budget(text: str) -> int:
        value = _int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    ev = sub.add_parser("eval", help="evaluate a truncated series")
    ev.add_argument("--kind", required=True,
                    choices=("mzf", "zeta-tilde", "zeta-c", "mt", "theorem"))
    ev.add_argument("--shape", default=None)
    ev.add_argument("--s", required=True)
    ev.add_argument("--N", type=_int, default=None)
    ev.add_argument("--N-list", dest="n_list", default=None,
                    type=lambda text: tuple(map(_int, text.split(","))))
    ev.add_argument("--i", type=_int, default=None)
    ev.add_argument("--j", type=_int, default=None)
    ev.add_argument("--variant", default=None,
                    choices=("1", "2", "diff", "h1", "h2"))
    ev.add_argument("--budget-max-n", type=budget, default=None)
    formats(ev, "json", "csv", "text")

    dm = sub.add_parser("domain", help="membership verdict with margins")
    dm.add_argument("--shape", default=None)
    dm.add_argument("--s", required=True)
    formats(dm, "json", "text")

    rl = sub.add_parser("relations", help="generate a relation set file")
    rl.add_argument("--weight", type=_int, required=True)
    rl.add_argument("--family", required=True, choices=rel_mod.FAMILIES)
    rl.add_argument("--out", required=True)
    rl.add_argument("--budget-max-weight", type=budget, default=rel_mod.MAX_WEIGHT_BUDGET)
    rl.add_argument("--cache-dir", default=None)
    formats(rl, "json", "text")

    rk = sub.add_parser("rank", help="exact rank of a relation set file")
    rk.add_argument("--in", dest="infile", required=True)
    formats(rk, "json", "text")

    tb = sub.add_parser("table1", help="independent-relation counts per weight")
    tb.add_argument("--max-weight", type=_int, required=True)
    tb.add_argument("--families", nargs="*", default=rel_mod.FAMILIES,
                    choices=rel_mod.FAMILIES)
    tb.add_argument("--budget-max-weight", type=budget, default=rel_mod.MAX_WEIGHT_BUDGET)
    formats(tb, "json", "csv", "text")

    dc = sub.add_parser("decompose", help="rewrite a constrained sum into symbols")
    dc.add_argument("--shape", required=True)
    dc.add_argument("--set", dest="setname", required=True,
                    choices=("S", "S_i", "S_ij", "T_i"))
    dc.add_argument("--i", type=_int, default=None)
    dc.add_argument("--j", type=_int, default=None)
    dc.add_argument("--exponents", default=None)
    dc.add_argument("--count", action="store_true")
    dc.add_argument("--N", type=_int, default=None)
    formats(dc, "json", "text")
    return p


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _plan_from_args(args) -> series.TruncationPlan:
    refinements = args.n_list
    cutoff = args.N if args.N is not None else (refinements[-1] if refinements else None)
    if cutoff is None:
        raise ParseError("one of --N or --N-list is required")
    try:
        return series.TruncationPlan(cutoff, refinements)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_args_with_shape(args) -> ComplexArgs:
    shape = Shape.parse(args.shape.replace(";", ",")) if args.shape else None
    return ComplexArgs.parse(args.s, shape)


def _report_text(rep: series.EvalReport) -> str:
    lines = [f"value = {rep.value.real!r} + {rep.value.imag!r}i  (N = {rep.cutoff})"]
    if rep.refinements:
        for n, v in rep.refinements:
            lines.append(f"  N={n}: {v.real!r} + {v.imag!r}i")
    lines.append(f"residual estimate = {rep.residual!r}")
    return "\n".join(lines)


def _theorem_text(rep: series.TheoremReport) -> str:
    lines = [
        f"lhs = {rep.lhs!r}",
        f"rhs = {rep.rhs!r}",
        f"residual = {rep.residual!r}  (N = {rep.cutoff})",
    ]
    if rep.refinements:
        for n, _, _, q in rep.refinements:
            lines.append(f"  N={n}: residual {q!r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


# The flags each eval kind reads besides --s, the cutoffs and --format.
_EVAL_FLAGS = {"mzf": (), "mt": (), "zeta-tilde": ("shape", "i", "j", "variant"),
               "zeta-c": ("shape", "i"), "theorem": ("shape",)}


def cmd_eval(args) -> int:
    kind = args.kind
    for flag in ("shape", "i", "j", "variant"):
        if getattr(args, flag) is not None and flag not in _EVAL_FLAGS[kind]:
            raise ParseError(f"--kind {kind} does not read --{flag}")
    plan, cap = _plan_from_args(args), {"max_cutoff": args.budget_max_n}
    if kind == "mzf":
        rep = series.eval_mzf(ComplexArgs.parse(args.s).values, plan, **cap)
    elif kind == "mt":
        vals = ComplexArgs.parse(args.s).values
        if len(vals) != 3:
            raise ParseError("--kind mt needs exactly three arguments")
        rep = series.eval_mordell_tornheim(*vals, plan, **cap)
    else:
        s = _parse_args_with_shape(args)
        try:
            if kind == "zeta-tilde":
                if args.i is None or args.j is None:
                    raise ParseError("--kind zeta-tilde needs --i and --j")
                variant = args.variant or "diff"
                if variant in ("h1", "h2"):
                    rep = series.eval_zeta_tilde_harmonic(s, args.i, args.j, int(variant[1]),
                                                          plan, **cap)
                else:
                    rep = series.eval_zeta_tilde(s, args.i, args.j, variant, plan, **cap)
            elif kind == "zeta-c" and args.i is not None:
                rep = series.eval_zeta_C_i(s, args.i, plan, **cap)
            elif kind == "zeta-c":
                rep = series.eval_zeta_C(s, plan, **cap)
            else:  # theorem
                rep = series.eval_theorem_residual(s, plan, **cap)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    obj = rep.to_json_obj()
    theorem = kind == "theorem"
    if args.format == "json":
        _emit(json.dumps(obj, indent=2))
    elif args.format == "csv":
        # a header and, per cutoff, the numbers of the JSON report
        if theorem:
            head = "N,lhs_re,lhs_im,rhs_re,rhs_im,residual"
            at_cutoff = [*obj["lhs"], *obj["rhs"], obj["residual"]]
        else:
            head, at_cutoff = "N,re,im", obj["value"]
        rows = obj.get("refinements") or [[obj["cutoff"], *at_cutoff]]
        _emit("\n".join([head, *(",".join(map(repr, row)) for row in rows)]))
    else:
        _emit(_theorem_text(rep) if theorem else _report_text(rep))
    return 0


def cmd_domain(args) -> int:
    s = _parse_args_with_shape(args)
    # W's inequalities grow as d^2 with labels of up to d terms on an
    # all-singleton shape, so the shape must pass the DAG cap of its S first.
    series._sized(build_constraints_S(s.shape))
    qs = w_inequalities(s)
    bad = first_failure(qs)
    if args.format == "json":
        _emit(json.dumps({
            "inside": bad is None,
            "inequalities": [{**dataclasses.asdict(q), "ok": q.ok} for q in qs],
        }, indent=2))
    else:
        lines = ["inside W" if bad is None else f"outside W: {bad.describe()}"]
        for q in qs:
            lines.append(
                ("  ok   " if q.ok else "  FAIL ")
                + q.describe()
                + f"  (margin {q.value - q.threshold:+g})"
            )
        _emit("\n".join(lines))
    return 0


def _atomic_write(path: Path, data: bytes):
    """Write through a temporary file in the target directory, removed on
    failure; an OSError is a ParseError."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise ParseError(f"cannot write {path}: {exc}") from None
        raise


def _generator_digest() -> str:
    """sha256 over the sources that relation generation and
    `relation_set_dumps` run."""
    h = hashlib.sha256()
    for name in ("model.py", "decompose.py", "relations.py"):
        h.update(hashlib.sha256((Path(__file__).parent / name).read_bytes()).digest())
    return h.hexdigest()


def _cache_path(args) -> Path | None:
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    # The package version and a digest of the generator's code are part of
    # the key, so sets cached by older code are never read back.
    key = json.dumps(
        {"version": __version__, "generator": _generator_digest(),
         "weight": args.weight, "family": args.family},
        sort_keys=True,
    )
    h = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"relations-w{args.weight}-{args.family}-{h}.json"


def _drop_other_keys(entry: Path):
    """Delete the sets of entry's weight and family cached under other keys
    (by older code); one that cannot be deleted is left."""
    for path in entry.parent.glob(entry.name.rsplit("-", 1)[0] + "-*.json"):
        if path != entry:
            try:
                path.unlink()
            except OSError:
                pass


def _cache_valid(data: bytes, weight: int, family: str) -> rel_mod.RelationMatrix | None:
    """The matrix of a hit, or None: a hit must parse as a relation set of
    the requested weight and family."""
    try:
        matrix = rel_mod.relation_set_loads(data)
    except ParseError:
        return None
    return matrix if (matrix.weight, matrix.family) == (weight, family) else None


def _read(path: Path) -> bytes:
    """The bytes of a file; an OSError is a ParseError."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def cmd_relations(args) -> int:
    cache = _cache_path(args)
    matrix = None
    data = _read(cache) if cache is not None and cache.exists() else None
    if data is not None:
        matrix = _cache_valid(data, args.weight, args.family)
        if matrix is None:
            print(f"warning: corrupt cache entry {cache}, recomputing",
                  file=sys.stderr)
    cached = matrix is not None
    if matrix is None:
        matrix = rel_mod.generate_relations(args.weight, args.family,
                                            max_weight_budget=args.budget_max_weight)
        data = rel_mod.relation_set_dumps(args.weight, args.family, matrix)
        if cache is not None:
            _atomic_write(cache, data)
    out = Path(args.out)
    _atomic_write(out, data)
    if cache is not None and not cached:
        _drop_other_keys(cache)
    rows, symbols = matrix.shape
    summary = {
        "out": str(out),
        "weight": args.weight,
        "family": args.family,
        "rows": rows,
        "symbols": symbols,
        "cached": cached,
    }
    if args.format == "json":
        _emit(json.dumps(summary, indent=2))
    else:
        _emit(
            f"wrote {summary['rows']} relations over {summary['symbols']} symbols "
            f"to {out}" + (" (cache hit)" if cached else "")
        )
    return 0


def cmd_rank(args) -> int:
    # No name holds the file's bytes, so the reader frees them once it has
    # decoded them to text, before it decodes the JSON and the rank is computed.
    matrix = rel_mod.relation_set_loads(_read(Path(args.infile)))
    rank = rel_mod.rank_exact(matrix)
    if args.format == "json":
        _emit(json.dumps({"rank": rank, "rows": matrix.shape[0],
                          "symbols": matrix.shape[1]}, indent=2))
    else:
        _emit(str(rank))
    return 0


def cmd_table1(args) -> int:
    # A --max-weight below 3 is passed on as the one weight, which table1
    # refuses.
    weights = range(min(3, args.max_weight), args.max_weight + 1)
    families = list(dict.fromkeys(args.families or rel_mod.FAMILIES))
    table = rel_mod.table1(weights, families, max_weight_budget=args.budget_max_weight)

    if args.format == "json":
        obj = {
            "note": "all_ref is a stored reference count, not computed",
            "rows": [{"weight": w, **table[w]} for w in weights],
        }
        _emit(json.dumps(obj, indent=2))
    elif args.format == "csv":
        rows = [["weight", *families, "all_relations(ref)"]]
        rows += [[w, *(table[w][f] for f in families), table[w]["all_ref"]] for w in weights]
        _emit("\n".join(",".join(map(str, row)) for row in rows))
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


def _parse_exponents(text: str, variables) -> dict[VarId, int]:
    """key:value entries separated by commas or spaces, no entry blank:
    each key names one variable of the system (n or n<i>_<j>) exactly once,
    each value is an optional sign and ASCII digits, and every variable
    gets a value."""
    names = {str(v): v for v in variables}
    out: dict[VarId, int] = {}
    for tok in re.split(r"\s*,\s*|\s+", text.strip()):
        if not tok:
            raise ParseError(f"blank exponent entry in {text!r}")
        key, sep, val = tok.partition(":")
        if not sep:
            raise ParseError(f"bad exponent entry {tok!r} (expected key:value)")
        var = names.get(key)
        if var is None:
            raise ParseError(f"bad exponent key {key!r} (the variables are {', '.join(names)})")
        if var in out:
            raise ParseError(f"exponent of {var} given twice")
        if not _INT.fullmatch(val):
            raise ParseError(f"bad exponent value {val!r}")
        out[var] = int(val)
        if out[var] < 0:
            raise ParseError(f"exponent of {var} must be >= 0, got {out[var]}")
    missing = [v for v in variables if v not in out]
    if missing:
        raise ParseError(
            "missing exponents for " + ", ".join(str(v) for v in missing)
        )
    return out


# The position flags each decompose --set reads; --count also reads --N,
# and without it --exponents is read.
_SET_FLAGS = {"S": (), "S_i": ("i",), "T_i": ("i",), "S_ij": ("i", "j")}


def cmd_decompose(args) -> int:
    reads = _SET_FLAGS[args.setname] + (("N",) if args.count else ("exponents",))
    for flag in ("i", "j", "N", "exponents"):
        given = getattr(args, flag) is not None
        if given != (flag in reads):
            mode = "--count" if args.count else "without --count"
            raise ParseError(f"decompose --set {args.setname} {mode} "
                             f"{'does not read' if given else 'needs'} --{flag}")
    shape = Shape.parse(args.shape)
    # Built per call, so a builder rebound on this module is the one called.
    build = {"S": build_constraints_S, "S_i": build_constraints_S_i,
             "S_ij": build_constraints_S_ij, "T_i": build_constraints_T_i}[args.setname]
    try:
        cs = build(shape, *(getattr(args, flag) for flag in _SET_FLAGS[args.setname]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None

    if args.count:
        if args.N < 0:
            raise ParseError(f"--N must be >= 0, got {args.N}")
        n = count_lattice_points(cs, args.N)
        if args.format == "json":
            _emit(json.dumps({"count": n, "N": args.N,
                              "constraints": [str(c) for c in cs.constraints]}))
        else:
            _emit(str(n))
        return 0

    exps = _parse_exponents(args.exponents, cs.variables)
    combo = decompose_to_mzv(cs, exps)
    # Each weak order adds 1 to the coefficient of one symbol.
    orders = sum(combo.coefficients().values())
    if args.format == "json":
        _emit(json.dumps({
            "weak_orders": orders,
            "combination": combo.to_json_obj(),
            "constraints": [str(c) for c in cs.constraints],
        }, indent=2))
    else:
        _emit(f"{orders} weak orders\n{combo}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "eval": cmd_eval,
            "domain": cmd_domain,
            "relations": cmd_relations,
            "rank": cmd_rank,
            "table1": cmd_table1,
            "decompose": cmd_decompose,
        }[args.command]
        return handler(args)
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
