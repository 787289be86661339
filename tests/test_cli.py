import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cycliczeta import relations as rel_mod
from cycliczeta.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- eval --------------------------------------------------------------------


def test_eval_mzf_value(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "mzf", "--s", "2+0i", "--N", "100000")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["value"][0] - 1.644934) < 1e-4
    assert obj["value"][1] == 0.0


def test_eval_mzf_domain_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--kind", "mzf", "--s", "0.5+0i", "--N", "100")
    assert code == 2
    assert "Re(s(1,1))" in err


def test_eval_theorem_refinements(capsys):
    code, out, _ = run(
        capsys, "eval", "--kind", "theorem", "--shape", "1", "--s", "3+0i",
        "--N-list", "125,250,500,1000",
    )
    assert code == 0
    obj = json.loads(out)
    resids = [row[5] for row in obj["refinements"]]
    assert all(b < a for a, b in zip(resids, resids[1:]))


def test_eval_theorem_text_format(capsys):
    code, out, _ = run(
        capsys, "eval", "--kind", "theorem", "--shape", "1", "--s", "3+0i",
        "--N-list", "125,250", "--format", "text",
    )
    assert code == 0
    assert "residual" in out and "N=250" in out


def test_eval_zeta_tilde_variants(capsys):
    for variant in ("1", "2", "diff", "h1", "h2"):
        code, out, _ = run(
            capsys, "eval", "--kind", "zeta-tilde", "--shape", "2",
            "--s", "1.5+0i,2.5+0i", "--i", "1", "--j", "1",
            "--variant", variant, "--N", "200",
        )
        assert code == 0
        json.loads(out)


def test_eval_zeta_c_with_and_without_block(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "zeta-c", "--shape", "1",
                       "--s", "3+0i", "--i", "1", "--N", "20000")
    assert code == 0
    assert abs(json.loads(out)["value"][0] - 1.0823232) < 1e-4
    code, out, _ = run(capsys, "eval", "--kind", "zeta-c",
                       "--s", "1.5+0i,2.5+0i", "--N", "2000")
    assert code == 0


def test_eval_parse_error_exit_3(capsys):
    code, _, err = run(capsys, "eval", "--kind", "mzf", "--s", "2+0i")
    assert code == 3  # no --N / --N-list
    code, _, _ = run(capsys, "eval", "--kind", "mzf", "--s", "zz", "--N", "10")
    assert code == 3
    code, _, _ = run(capsys, "eval", "--kind", "nope", "--s", "2", "--N", "10")
    assert code == 3


def test_eval_budget_exit_4(capsys):
    code, _, err = run(
        capsys, "eval", "--kind", "zeta-tilde", "--shape", "1", "--s", "3+0i",
        "--i", "1", "--j", "1", "--N", "1000000",
    )
    assert code == 4


@pytest.mark.parametrize("argv, want", [
    (["--N", "10000"], 0),
    (["--N", "1000001"], 4),
    (["--N", "2000", "--budget-max-n", "1000"], 4),
])
def test_eval_mt_cutoff_cap(capsys, argv, want):
    code, out, err = run(capsys, "eval", "--kind", "mt", "--s", "2,1,1", *argv)
    assert code == want
    if want == 4:
        assert out == "" and "exceeds the enumeration cap" in err


def test_eval_mt_and_csv(capsys):
    code, out, _ = run(
        capsys, "eval", "--kind", "mt", "--s", "2+0i,1+0i,1+0i",
        "--N-list", "500,1000", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,re,im"
    assert len(lines) == 3


# --- domain ------------------------------------------------------------------


def test_domain_outside(capsys):
    code, out, _ = run(
        capsys, "domain", "--shape", "2", "--s", "0.5+0i,1.2+0i", "--format", "text"
    )
    assert code == 0
    assert "outside W" in out
    assert "1.7" in out


def test_domain_inside_singletons(capsys):
    code, out, _ = run(
        capsys, "domain", "--shape", "1,1", "--s", "1.5+0i,1.6+1i", "--format", "text"
    )
    assert code == 0
    assert "inside W" in out


def test_domain_inside_json(capsys):
    code, out, _ = run(capsys, "domain", "--shape", "1", "--s", "2.5+0i")
    assert code == 0
    obj = json.loads(out)
    assert obj["inside"] is True


@pytest.mark.parametrize("arg", ["nan", "1e400"])
def test_domain_non_finite_argument_exit_3(capsys, arg):
    code, out, err = run(capsys, "domain", "--shape", "1", "--s", arg)
    assert code == 3 and out == ""
    assert err.startswith("parse error:") and "non-finite" in err


# --- relations / rank / table1 ----------------------------------------------


def test_relations_rank_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "w3.json"
    code, out, _ = run(
        capsys, "relations", "--weight", "3", "--family", "cyclic",
        "--out", str(out_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "rank", "--in", str(out_file), "--format", "text")
    assert code == 0
    assert out.strip() == "1"


def test_rank_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"weight": None, "family": "cyclic",
                             "symbols": [], "rows": []}))
    code, out, _ = run(capsys, "rank", "--in", f.as_posix(), "--format", "text")
    assert code == 0
    assert out.strip() == "0"


def test_rank_bad_file_exit_3(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{nope")
    code, _, _ = run(capsys, "rank", "--in", f.as_posix())
    assert code == 3


def test_relations_cache_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MZF_CACHE_DIR", str(tmp_path / "cache"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, out, _ = run(capsys, "relations", "--weight", "4", "--family", "csf",
                       "--out", str(a))
    assert code == 0 and json.loads(out)["cached"] is False
    code, out, _ = run(capsys, "relations", "--weight", "4", "--family", "csf",
                       "--out", str(b))
    assert code == 0 and json.loads(out)["cached"] is True
    assert a.read_bytes() == b.read_bytes()


def test_relations_corrupt_cache_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    out_file = tmp_path / "w3.json"
    code, _, _ = run(capsys, "relations", "--weight", "3", "--family", "csf",
                     "--out", str(out_file), "--cache-dir", str(cache))
    assert code == 0
    entries = list(cache.glob("relations-*.json"))
    assert len(entries) == 1
    entries[0].write_text("{broken")
    code, _, err = run(capsys, "relations", "--weight", "3", "--family", "csf",
                       "--out", str(out_file), "--cache-dir", str(cache))
    assert code == 0
    assert "corrupt cache" in err


def _cached_relations(capsys, cache, out_file):
    code, out, err = run(capsys, "relations", "--weight", "4", "--family", "cyclic",
                         "--out", str(out_file), "--cache-dir", str(cache))
    assert code == 0
    return json.loads(out)["cached"], err


def test_relations_cache_skips_sets_from_older_code(tmp_path, capsys, monkeypatch):
    cache, out_file, fresh = tmp_path / "cache", tmp_path / "w4.json", tmp_path / "fresh.json"
    assert run(capsys, "relations", "--weight", "4", "--family", "cyclic",
               "--out", str(fresh))[0] == 0
    # A well-formed set written by an older generator, which differs.
    monkeypatch.setattr(rel_mod, "GENERATOR_VERSION", rel_mod.GENERATOR_VERSION - 1)
    assert _cached_relations(capsys, cache, out_file)[0] is False
    [stale] = cache.glob("relations-*.json")
    obj = json.loads(stale.read_text())
    obj["rows"] = obj["rows"][:1]
    stale.write_text(json.dumps(obj))
    monkeypatch.undo()
    assert _cached_relations(capsys, cache, out_file)[0] is False
    assert out_file.read_bytes() == fresh.read_bytes()
    assert _cached_relations(capsys, cache, out_file)[0] is True
    assert len(list(cache.glob("relations-*.json"))) == 2


@pytest.mark.parametrize("blob", [
    # the four top-level keys are present but the symbols do not parse
    {"weight": 4, "family": "cyclic", "symbols": ["x"], "rows": []},
    # a well-formed set of another weight
    {"weight": 3, "family": "cyclic", "symbols": ["1,2", "3"],
     "rows": [{"entries": [[0, "1"], [1, "-1"]]}]},
])
def test_relations_cache_recomputes_unusable_entry(tmp_path, capsys, blob):
    cache, out_file, fresh = tmp_path / "cache", tmp_path / "w4.json", tmp_path / "fresh.json"
    assert run(capsys, "relations", "--weight", "4", "--family", "cyclic",
               "--out", str(fresh))[0] == 0
    _cached_relations(capsys, cache, out_file)
    [entry] = cache.glob("relations-*.json")
    entry.write_text(json.dumps(blob))
    cached, err = _cached_relations(capsys, cache, out_file)
    assert cached is False and "corrupt cache" in err
    assert out_file.read_bytes() == fresh.read_bytes() == entry.read_bytes()


def test_relations_weight_below_3_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "relations", "--weight", "2", "--family", "cyclic",
                       "--out", str(tmp_path / "w2.json"))
    assert code == 3 and "below the smallest weight 3" in err
    assert not (tmp_path / "w2.json").exists()


@pytest.mark.slow
def test_relations_weight10_cyclic_matches_stored_checksum(tmp_path, capsys):
    want = (ROOT / "perfbench" / "data" / "relations-w10-cyclic.json.sha256").read_text()
    out_file = tmp_path / "w10.json"
    code, _, _ = run(capsys, "relations", "--weight", "10", "--family", "cyclic",
                     "--budget-max-weight", "10", "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == want.split()[0]


def test_table1_small(capsys):
    code, out, _ = run(capsys, "table1", "--max-weight", "5")
    assert code == 0
    obj = json.loads(out)
    rows = {r["weight"]: r for r in obj["rows"]}
    assert (rows[3]["csf"], rows[3]["derivation"], rows[3]["cyclic"]) == (1, 1, 1)
    assert (rows[4]["csf"], rows[4]["derivation"], rows[4]["cyclic"]) == (2, 2, 2)
    assert (rows[5]["csf"], rows[5]["derivation"], rows[5]["cyclic"]) == (4, 5, 5)
    assert rows[5]["all_ref"] == 6


def test_table1_text_marks_reference(capsys):
    code, out, _ = run(capsys, "table1", "--max-weight", "4", "--format", "text")
    assert code == 0
    assert "(ref)" in out


def test_table1_budget_exit_4(capsys):
    code, _, _ = run(capsys, "table1", "--max-weight", "9")
    assert code == 4


def test_table1_zero_weight_budget_exit_4(capsys):
    code, out, err = run(capsys, "table1", "--max-weight", "4",
                         "--budget-max-weight", "0")
    assert code == 4 and out == ""
    assert "budget 0" in err


def test_table1_internal_invariant_exit_5(capsys, monkeypatch):
    rank = rel_mod.rank_exact

    def inflated(matrix):
        r = rank(matrix)
        return r + 2 if matrix.provenances[0].family == "csf" else r

    monkeypatch.setattr(rel_mod, "rank_exact", inflated)
    code, out, err = run(capsys, "table1", "--max-weight", "5")
    assert code == 5 and out == ""
    assert err.startswith("internal error:") and "weight" in err
    assert "Traceback" not in err


def test_relations_zero_row_budget_exit_4(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, "relations", "--weight", "5", "--family", "cyclic",
                       "--budget-max-rows", "0", "--out", str(out_file))
    assert code == 4
    assert "exceed the budget 0" in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["table1", "--max-weight", "4", "--budget-max-weight", "-1"],
    ["relations", "--weight", "5", "--family", "cyclic", "--budget-max-rows", "-1",
     "--out", "unused.json"],
    ["eval", "--kind", "mzf", "--s", "2", "--N", "10", "--budget-max-n", "-1"],
])
def test_negative_budget_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("parse error:") and "must be >= 0" in err


def test_table1_max_weight_below_3_exit_3(capsys):
    code, out, err = run(capsys, "table1", "--max-weight", "2")
    assert code == 3 and out == ""
    assert "below the smallest weight 3" in err


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--max-weight", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,csf,derivation,cyclic,all_relations(ref)"
    assert lines[1] == "3,1,1,1,1"
    assert lines[2] == "4,2,2,2,3"


@pytest.mark.parametrize("argv", [
    ["table1", "--max-weight", "4", "--parallel", "2"],
    ["relations", "--weight", "3", "--family", "csf", "--out", "unused.json",
     "--parallel", "2"],
    ["eval", "--kind", "mzf", "--s", "2", "--N", "10", "--cache-dir", "X"],
    ["domain", "--shape", "1", "--s", "2.5", "--format", "csv"],
])
def test_flags_the_subcommand_does_not_read_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("parse error:")


# --- decompose ---------------------------------------------------------------


def test_decompose_examples(capsys):
    code, out, _ = run(
        capsys, "decompose", "--shape", "1", "--set", "S_ij", "--i", "1", "--j", "1",
        "--exponents", "n1_1:1,n:2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["combination"] == {"1,2": "1"}
    assert obj["weak_orders"] == 1

    code, out, _ = run(
        capsys, "decompose", "--shape", "1", "--set", "S_i", "--i", "1",
        "--exponents", "n1_1:2 n:1", "--format", "text",
    )
    assert code == 0
    assert "z(3)" in out


def test_decompose_non_admissible_exit_5(capsys):
    code, _, err = run(
        capsys, "decompose", "--shape", "1,1", "--set", "T_i", "--i", "2",
        "--exponents", "n1_1:0,n2_1:0",
    )
    assert code == 5
    assert "partition" in err


def test_decompose_count_mode(capsys):
    code, out, _ = run(
        capsys, "decompose", "--shape", "1,1", "--set", "T_i", "--i", "2",
        "--count", "--N", "4", "--format", "text",
    )
    assert code == 0
    assert out.strip() == "10"


def test_decompose_base_set_no_indices(capsys):
    code, out, _ = run(
        capsys, "decompose", "--shape", "2,1", "--set", "S",
        "--exponents", "n1_1:1,n1_2:2,n2_1:2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["weak_orders"] == 3
    assert sum(int(v) for v in obj["combination"].values()) == 3


def test_decompose_bad_indices_exit_3(capsys):
    code, _, _ = run(
        capsys, "decompose", "--shape", "2", "--set", "S_ij", "--i", "1", "--j", "5",
        "--exponents", "n1_1:1,n1_2:2,n:1",
    )
    assert code == 3


def test_decompose_negative_exponent_exit_3(capsys):
    code, out, err = run(
        capsys, "decompose", "--shape", "1", "--set", "S_ij", "--i", "1", "--j", "1",
        "--exponents", "n1_1:-1,n:2",
    )
    assert code == 3 and out == ""
    assert err.startswith("parse error:") and "must be >= 0" in err


def test_decompose_count_negative_n_exit_3(capsys):
    code, out, err = run(
        capsys, "decompose", "--shape", "1", "--set", "S_i", "--i", "1",
        "--count", "--N", "-3",
    )
    assert code == 3 and out == ""
    assert err.startswith("parse error:") and "--N must be >= 0" in err


# --- the benchmark's traced run ---------------------------------------------

# Run in a fresh interpreter: Tracer.install rebinds module attributes.
# argv[1] is the checkout, argv[2] the CLI arguments as JSON; the last line
# printed is one JSON object holding the CLI's exit code and output.
TRACED = """
import contextlib, io, json, sys, time
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import tracing
from cycliczeta import cli
tracer = tracing.Tracer("t")
tracer.install()
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(json.loads(sys.argv[2]))
metrics = tracer.metrics(time.perf_counter() - start)
print(json.dumps({"code": code, "out": out.getvalue(), "missing": tracer.missing,
                  "metrics": {k: v for k, (v, _) in metrics.items()}}))
"""
# Per-layer metrics that perfbench/run.py adds from whole runs.
RUN_METRICS = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
               "trace.untraced_spread", "host.raw_wall_s", "host.slowdown"}
DECLARED = {m["name"] for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def run_traced(*argv) -> dict:
    """The traced CLI run's result; it must leave perfbench/ as it was."""
    before = sorted((ROOT / "perfbench").rglob("*"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", TRACED, str(ROOT), json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted((ROOT / "perfbench").rglob("*")) == before
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0 and got["missing"] == []
    assert all(math.isfinite(v) for v in got["metrics"].values()), got["metrics"]
    return got


def test_traced_table1_reports_every_per_layer_metric_finite():
    got = run_traced("table1", "--max-weight", "5")
    assert DECLARED - RUN_METRICS <= set(got["metrics"])


def test_traced_eval_reports_every_series_metric_finite():
    """The plain-chain path under the tracer: every series.* name is
    present, the wrapped bindings are called through the module, and the
    CLI output is still the evaluation report."""
    got = run_traced("eval", "--kind", "zeta-c", "--shape", "2,2", "--s",
                     "1.2+0.1i,2.2-0.2i;1.5+0.3i,2.5", "--i", "1", "--N-list", "50,100")
    metrics = got["metrics"]
    assert {n for n in DECLARED if n.startswith("series.")} <= set(metrics)
    for name in ("series.chain_plain_calls", "series.pow_vec_calls",
                 "series.orders_evaluated"):
        assert metrics[name] > 0, name
    result = json.loads(got["out"])
    assert result["cutoff"] == 100 and len(result["refinements"]) == 2


# --- fuzzed argument lists ---------------------------------------------------

INT = st.integers(-3, 50).map(str)
WEIGHT = st.integers(-1, 5).map(str)
JUNK = st.sampled_from(["", "x", "nan", "1e400", "2.5", "1,2", ";", "--"])
SHAPE = st.sampled_from(["1", "2", "1,1", "2,1", "1;1", "0", "-1", "a"])
COMPLEX = st.sampled_from(["2+0i", "1.5+0.5i", "3", "0.5", "1.5,2.5", "1.5;1.6",
                           "1.2,2.2;1.5", "2-1i,1,1", "1e400", "nan", "x", ""])
N_LIST = st.lists(st.integers(-2, 50), max_size=3).map(lambda v: ",".join(map(str, v)))
EXPONENTS = st.sampled_from(["n1_1:1,n:2", "n1_1:2 n:1", "n1_1:0,n2_1:0",
                             "n1_1:1,n1_2:2,n2_1:2,n:1", "n1_1:-1,n:2", "n:x", "q:1", ""])
FAMILY = st.sampled_from(["csf", "derivation", "cyclic", "bogus"])
BOOL = st.sampled_from(["true", "0", "maybe"])
# Paths inside the example's own directory: {tmp} is filled in per example.
PATH = st.sampled_from(["{tmp}/set.json", "{tmp}/missing.json", "{tmp}/junk.json", "{tmp}"])

OPTIONS = {
    "eval": [("--kind", st.sampled_from(["mzf", "zeta-tilde", "zeta-c", "mt", "theorem", "z"])),
             ("--shape", SHAPE), ("--s", COMPLEX), ("--N", INT), ("--N-list", N_LIST),
             ("--i", INT), ("--j", INT), ("--budget-max-n", INT),
             ("--variant", st.sampled_from(["1", "2", "diff", "h1", "h2", "3"]))],
    "domain": [("--shape", SHAPE), ("--s", COMPLEX)],
    "relations": [("--weight", WEIGHT), ("--family", FAMILY), ("--out", PATH),
                  ("--include-d1-derivation", BOOL), ("--budget-max-weight", WEIGHT),
                  ("--budget-max-rows", INT), ("--cache-dir", PATH)],
    "rank": [("--in", PATH)],
    "table1": [("--max-weight", WEIGHT), ("--families", FAMILY),
               ("--include-d1-derivation", BOOL), ("--budget-max-weight", WEIGHT),
               ("--budget-max-rows", INT)],
    "decompose": [("--shape", SHAPE), ("--set", st.sampled_from(["S", "S_i", "S_ij", "T_i", "U"])),
                  ("--i", INT), ("--j", INT), ("--exponents", EXPONENTS), ("--count", None),
                  ("--N", INT)],
}
COMMON = [("--format", st.sampled_from(["json", "csv", "text", "xml"]))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_arguments_keep_the_exit_code_contract(data):
    """Any argument list exits 0, 2, 3, 4 or 5; nothing escapes main."""
    command = data.draw(st.sampled_from(sorted(OPTIONS)), label="command")
    argv = [command]
    for flag, value in data.draw(st.lists(st.sampled_from(OPTIONS[command] + COMMON),
                                          max_size=7), label="options"):
        argv.append(flag)
        if value is not None:
            argv.append(data.draw(st.one_of(value, JUNK), label=flag))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {}, clear=False):
        os.environ.pop("MZF_CACHE_DIR", None)
        Path(tmp, "junk.json").write_text("{not json")
        argv = [a.replace("{tmp}", tmp) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
