import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycliczeta import cli as cli_mod
from cycliczeta import relations as rel_mod
from cycliczeta.cli import build_parser, main
from cycliczeta.decompose import weak_orders
from cycliczeta.model import Shape, build_constraints_S_i, build_constraints_S_ij

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


HUGE = "1e308+1e308i"


@pytest.mark.parametrize("argv", [
    ["--kind", "mzf", "--s", HUGE],
    ["--kind", "theorem", "--shape", "1", "--s", HUGE],
    ["--kind", "zeta-c", "--shape", "1", "--s", HUGE, "--format", "csv"],
    ["--kind", "zeta-c", "--shape", "2", "--s", f"{HUGE},2.5", "--i", "1"],
    ["--kind", "zeta-tilde", "--shape", "2", "--s", f"{HUGE},2.5", "--i", "1", "--j", "1",
     "--variant", "diff"],
    ["--kind", "zeta-tilde", "--shape", "2", "--s", f"{HUGE},2.5", "--i", "1", "--j", "1",
     "--variant", "h1", "--format", "text"],
    ["--kind", "mt", "--s", f"{HUGE},{HUGE},{HUGE}", "--format", "text"],
], ids=["mzf", "theorem", "zeta-c-csv", "zeta-c-i", "zeta-tilde", "zeta-tilde-h1", "mt-text"])
def test_eval_non_finite_exit_5(capsys, argv):
    """A value or residual that is not finite is refused, not printed as NaN."""
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "eval", *argv, "--N", "10")
    assert code == 5 and out == ""
    assert err.startswith("internal error:") and "cutoff" in err
    assert "Traceback" not in err


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
    for kind, s in (("mzf", "2;;3"), ("mt", "2;;1,1")):  # an empty block
        code, _, err = run(capsys, "eval", "--kind", kind, "--s", s, "--N", "10")
        assert code == 3 and "empty block" in err
    for s in ("2,,3", "2,", " ,2"):  # a blank entry
        code, out, err = run(capsys, "eval", "--kind", "mzf", "--s", s, "--N", "10")
        assert (code, out) == (3, "") and "bad complex entry" in err
    code, _, _ = run(capsys, "eval", "--kind", "nope", "--s", "2", "--N", "10")
    assert code == 3
    # A position out of range is a usage error even when s lies outside W.
    for where in (["--kind", "zeta-c", "--i", "7"], ["--kind", "zeta-tilde", "--i", "3",
                                                     "--j", "1"]):
        code, _, err = run(capsys, "eval", *where, "--shape", "1,1", "--s", "0.5;0.5",
                           "--N", "10")
        assert code == 3 and "out of range" in err


@pytest.mark.parametrize("argv", [
    ["--kind", "mzf", "--s", "1_0"],
    ["--kind", "mzf", "--s", "\u0663"],
    ["--kind", "zeta-c", "--shape", "1_0", "--s", "2"],
    ["--kind", "zeta-c", "--shape", "\u0661", "--s", "2"],
], ids=["s-underscore", "s-arabic-indic", "shape-underscore", "shape-arabic-indic"])
def test_eval_underscore_or_non_ascii_exit_3(capsys, argv):
    """int() and complex() read '_' digit groups and other scripts' digits,
    which are refused."""
    code, out, err = run(capsys, "eval", *argv, "--N", "10")
    assert (code, out) == (3, "")
    assert err.startswith("parse error: bad ") and "only ASCII text without '_'" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--kind", "mzf", "--s", "2", "--N", "1_0"],
    ["eval", "--kind", "mzf", "--s", "2", "--N", "\u0661\u0660"],
    ["eval", "--kind", "mzf", "--s", "2", "--N-list", "1_0"],
    ["eval", "--kind", "mzf", "--s", "2", "--N-list", "5,,10"],
    ["eval", "--kind", "zeta-c", "--shape", "1,1", "--s", "2,2", "--i", "\u0662", "--N", "10"],
    ["relations", "--weight", "3", "--family", "csf", "--out", "w3.json",
     "--budget-max-weight", "1_0"],
    ["table1", "--max-weight", "1_0"],
], ids=["N-underscore", "N-arabic-indic", "N-list-underscore", "N-list-blank", "i-arabic-indic",
        "budget-underscore", "max-weight-underscore"])
def test_integer_flags_read_a_sign_and_ascii_digits_exit_3(capsys, tmp_path, monkeypatch, argv):
    """int() reads '_' digit groups and other scripts' digits; every
    integer flag and --N-list entry refuses them."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("parse error: argument --") and "bad integer" in err
    assert not any(tmp_path.iterdir())


def test_integer_flags_allow_a_sign_and_surrounding_spaces(capsys):
    argv = ["eval", "--kind", "mzf", "--s", "2", "--N-list", "5,10"]
    want = run(capsys, *argv)
    assert want[0] == 0
    assert run(capsys, *argv[:-1], " 5, +10 ") == want


def test_eval_zeta_tilde_variant_defaults_to_diff(capsys):
    argv = ["eval", "--kind", "zeta-tilde", "--shape", "2", "--s", "1.5,2.5",
            "--i", "1", "--j", "1", "--N", "50"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--variant", "diff") == (0, out, "")


def test_eval_budget_exit_4(capsys):
    code, _, err = run(
        capsys, "eval", "--kind", "zeta-tilde", "--shape", "1", "--s", "3+0i",
        "--i", "1", "--j", "1", "--N", "1000000",
    )
    assert code == 4


def test_eval_and_decompose_dag_cap_exit_4(capsys):
    import time

    # the S_i systems of (2,2,2,2) try 949 candidate levels: accepted
    code, out, _ = run(capsys, "eval", "--kind", "theorem", "--shape", "2,2,2,2",
                       "--s", "1.5,2.5;1.5,2.5;1.5,2.5;1.5,2.5", "--N", "10")
    assert code == 0 and json.loads(out)["cutoff"] == 10
    # the S system of (7,7,7,7,7,7) is refused while its DAG is built
    shape = "7,7,7,7,7,7"
    args = ";".join([",".join(["2"] * 7)] * 6)
    exps = ",".join(f"n{i}_{j}:2" for i in range(1, 7) for j in range(1, 8))
    for argv in (["eval", "--kind", "zeta-c", "--shape", shape, "--s", args, "--N", "10"],
                 ["decompose", "--shape", shape, "--set", "S", "--exponents", exps]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == "" and "candidate levels" in err, argv
        assert time.perf_counter() - start < 5


@pytest.mark.parametrize("kind", ["zeta-c", "theorem"])
@pytest.mark.parametrize("value", ["1.5", "0.5"], ids=["inside-W", "outside-W"])
def test_eval_refuses_300_singleton_blocks_at_the_dag_cap_first(capsys, kind, value):
    """The first system of 300 singleton blocks passes the DAG cap at once.
    The cap is checked before the domain, whose 89701 inequalities take
    seconds to label, so the call exits 4 at once, outside W too."""
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--kind", kind, "--shape", ",".join(["1"] * 300),
                         "--s", ";".join([value] * 300), "--N", "10")
    assert (code, out) == (4, "") and "candidate levels (the cap)" in err
    assert time.perf_counter() - start < 1


def test_eval_theorem_refuses_an_over_cap_system_before_any_sum(capsys, monkeypatch):
    """The S_ij systems of shape (3,2,1,1) try at most 302 candidate levels
    and its S_i systems up to 358: with the cap between, the call exits 4
    before summing any."""
    from cycliczeta import decompose, series

    def never(*args, **kwargs):
        raise AssertionError("summed before the cap was checked")

    monkeypatch.setattr(decompose, "LEVEL_CAP", 302)
    monkeypatch.setattr(series, "toeplitz_rows", never)
    monkeypatch.setattr(series, "_chain_plain", never)
    decompose._filter_steps.cache_clear()  # DAGs built under the real cap
    code, out, err = run(capsys, "eval", "--kind", "theorem", "--shape", "3,2,1,1",
                         "--s", "1.2,1.1,2.3;1.4,2.5;1.6;1.7", "--N", "1000")
    assert code == 4 and out == ""
    assert "shape 3,2,1,1 need more than 302 candidate levels" in err


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


@pytest.mark.parametrize("argv", [
    ["domain", "--shape", "2,1", "--s", "1.5;2.5,1.5"],
    ["eval", "--kind", "theorem", "--shape", "2,1", "--s", "1.5;2.5,1.5", "--N", "10"],
    ["domain", "--shape", "1,1", "--s", "1.5;;1.6"],
    ["domain", "--shape", "2,1", "--s", "1.5,2.5"],
])
def test_misblocked_arguments_exit_3(capsys, argv):
    """Only a ';'-free list of the shape's total depth is re-blocked."""
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("parse error:")


def _domain_calls():
    """domain calls, JSON and text, on every shape of total depth <= 5 with
    arguments inside W (2.5), outside it (0.5), on the singleton boundary
    (1) and three seeded draws."""
    rng = random.Random(32)
    for r in (r for d in range(1, 6) for r in itertools.product(range(1, 6), repeat=d)
              if sum(r) <= 5):
        draws = [[f"{rng.uniform(-0.5, 3):.6f}{rng.uniform(-1, 1):+.3f}i" for _ in range(sum(r))]
                 for _ in range(3)]
        for values in [[v] * sum(r) for v in ("2.5", "0.5", "1")] + draws:
            blocks = itertools.accumulate(r, initial=0)
            text = ";".join(",".join(values[a:b]) for a, b in itertools.pairwise(blocks))
            for fmt in ("json", "text"):
                yield ["domain", "--shape", ",".join(map(str, r)), f"--s={text}", "--format", fmt]


DOMAIN_SHA256 = "7eb51f8bab367faba213e9476c2b16595b36985988aa70c5da15beab3ae6e7f1"


def test_domain_output_is_pinned(capsys):
    """The verdicts, inequalities and margins of 372 domain calls, pinned
    byte for byte by the sha256 of their exit codes and outputs."""
    h = hashlib.sha256()
    for argv in _domain_calls():
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        h.update(f"{code}\0{out}\0".encode())
    assert h.hexdigest() == DOMAIN_SHA256


@pytest.mark.parametrize("blocks, code", [(14, 0), (15, 4), (300, 4)])
def test_domain_builds_the_dag_of_s_before_labelling_w(capsys, blocks, code):
    """W of d singleton blocks has d(d-1) + 1 inequalities, whose labels join
    up to d - 1 terms, so 300 blocks would print 194 MB.  The DAG of their S
    is built first, and from 15 blocks it passes the cap, so the call exits
    4 at once."""
    import time

    start = time.perf_counter()
    code_, out, err = run(capsys, "domain", "--shape", ",".join(["1"] * blocks),
                          "--s", ";".join(["1.5"] * blocks), "--format", "text")
    assert code_ == code and time.perf_counter() - start < 1
    if code:
        assert out == "" and "candidate levels (the cap)" in err
    else:
        assert out.startswith("inside W\n") and out.count("\n") == blocks * (blocks - 1) + 2


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


# Unreadable relation sets: not JSON, not UTF-8, and nested past the decoder's depth.
UNREADABLE = [b"{nope", b"\x80", b"[" * 200_000]
UNREADABLE_IDS = ["not-json", "not-utf8", "too-deep"]


@pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
def test_rank_bad_file_exit_3(tmp_path, capsys, data):
    f = tmp_path / "bad.json"
    f.write_bytes(data)
    code, out, err = run(capsys, "rank", "--in", f.as_posix())
    assert (code, out) == (3, "")
    assert err.startswith("parse error: bad relation-set JSON: ") and "Traceback" not in err


@pytest.mark.parametrize("field, value, bad", [("symbols", [4], 4), ("shape", 5, 5), ("k", 2, 2),
                                               ("family", 5, 5)])
def test_rank_non_string_field_exit_3(tmp_path, capsys, field, value, bad):
    prov = {"family": "cyclic", "shape": "1,1", "k": "1;2"}
    obj = {"weight": 3, "family": "cyclic", "symbols": ["1,2", "3"],
           "rows": [{"entries": [[0, "1"], [1, "-1"]], "provenance": prov}]}
    (obj if field == "symbols" else prov)[field] = value
    f = tmp_path / "set.json"
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, "rank", "--in", f.as_posix())
    assert (code, out) == (3, "")
    assert err == f"parse error: bad relation-set object: expected a string, not {bad}\n"


@pytest.mark.parametrize("entries", [
    [[0, "1"], [0, "-1"], [1, "1"]],  # a repeated column: the last value would win
    [[0, "1"], [1.7, "-1"]],  # float and boolean columns would read as 1
    [[0, "1"], [True, "-1"]],
    [[0, 1], [1, "-1"]],  # non-string coefficients; int() would truncate a float
    [[0, "1"], [1, -1.9]],
    # int() reads these, but str() never writes them
    [[0, "1_0"], [1, "-1"]],
    [[0, "1"], [1, " -1 "]],
    [[0, "+3"], [1, "-1"]],
    [[0, "\uff12"], [1, "-1"]],
    [[0, "007"], [1, "-1"]],
    [[0, "1"], [1, "-0"]],
    [[0, "-007"], [1, "-1"]],
    5,  # not a list of pairs
    [[0, "1"], [1]],
], ids=["repeated-column", "float-column", "bool-column", "int-coefficient",
        "float-coefficient", "underscore", "whitespace", "plus-sign", "fullwidth-digit",
        "leading-zeros", "minus-zero", "minus-leading-zeros", "not-a-list", "short-pair"])
def test_rank_entries_that_would_change_on_load_exit_3(tmp_path, capsys, entries):
    f = tmp_path / "set.json"
    f.write_text(json.dumps({"weight": 3, "family": "cyclic", "symbols": ["1,2", "3"],
                             "rows": [{"entries": entries}]}))
    code, out, err = run(capsys, "rank", "--in", f.as_posix())
    assert (code, out) == (3, "")
    assert err == ('parse error: row 0: "entries" must be a list of [column, coefficient] '
                   "pairs with distinct integer columns and coefficients written as str() "
                   "writes integers\n")


@pytest.mark.parametrize("field, value", [("weight", {}), ("weight", True), ("family", [])],
                         ids=["weight-object", "weight-true", "family-list"])
def test_rank_mistyped_weight_or_family_exit_3(tmp_path, capsys, field, value):
    """The weight is an integer or null and the family a string or null, as
    the matrix declares them; true is not the weight 1."""
    obj = {"weight": 3, "family": "cyclic", "symbols": ["1,2", "3"],
           "rows": [{"entries": [[0, "1"], [1, "-1"]]}], field: value}
    f = tmp_path / "set.json"
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, "rank", "--in", f.as_posix())
    weight, family = (value, "'cyclic'") if field == "weight" else (3, value)
    assert (code, out) == (3, "")
    assert err == ("parse error: bad relation-set object: weight must be an integer or null "
                   f"and family a string or null, not {weight} and {family}\n")


@pytest.mark.parametrize("rows, column", [
    ([[[0, "1"], [-1, "1"]]], -1),
    ([[[0, "1"], [2, "1"]]], 2),
    # the first column out of range, rows and entries in file order
    ([[[0, "1"]], [[1, "1"], [5, "2"], [-3, "1"]], [[7, "1"]]], 5),
], ids=["negative", "past-the-symbols", "first-in-file-order"])
def test_rank_column_out_of_range_exit_3(tmp_path, capsys, rows, column):
    f = tmp_path / "set.json"
    f.write_text(json.dumps({"weight": 3, "family": "cyclic", "symbols": ["1,2", "3"],
                             "rows": [{"entries": entries} for entries in rows]}))
    code, out, err = run(capsys, "rank", "--in", f.as_posix())
    assert (code, out, err) == (3, "", f"parse error: column index {column} out of range\n")


@pytest.mark.parametrize("symbols", [["3", "3"], ["3", "0_3"], ["1, 2", "3"], ["+3", "1,2"]],
                         ids=["repeated", "underscore", "space", "plus-sign"])
def test_rank_repeated_or_non_canonical_symbols_exit_3(tmp_path, capsys, symbols):
    """Each column is a different symbol to the rank: two rows of z(3) = 0
    written over a repeated symbol would rank 2, not 1."""
    f = tmp_path / "set.json"
    f.write_text(json.dumps({"weight": 3, "family": "cyclic", "symbols": symbols,
                             "rows": [{"entries": [[0, "1"]]}, {"entries": [[1, "1"]]}]}))
    code, out, err = run(capsys, "rank", "--in", f.as_posix())
    assert (code, out) == (3, "")
    assert err == ("parse error: symbols must be distinct and written as str() writes "
                   "them (comma-separated positive integers)\n")


def _write_failure(tmp_path, capsys, *flags):
    code, out, err = run(capsys, "relations", "--weight", "3", "--family", "cyclic", *flags)
    assert code == 3 and out == "" and "Traceback" not in err
    assert not list(tmp_path.rglob(".tmp-*"))
    return err


def test_relations_out_is_a_directory_exit_3(tmp_path, capsys):
    err = _write_failure(tmp_path, capsys, "--out", str(tmp_path))
    assert err.startswith(f"parse error: cannot write {tmp_path}: ")


def test_relations_out_under_a_file_exit_3(tmp_path, capsys):
    f = tmp_path / "file"
    f.write_text("kept")
    err = _write_failure(tmp_path, capsys, "--out", str(f / "x"))
    assert err.startswith(f"parse error: cannot write {f / 'x'}: ")
    assert f.read_text() == "kept"


def test_relations_cache_dir_is_a_file_exit_3(tmp_path, capsys):
    f = tmp_path / "file"
    f.write_text("kept")
    err = _write_failure(tmp_path, capsys, "--out", str(tmp_path / "w3.json"),
                         "--cache-dir", str(f))
    assert err.startswith(f"parse error: cannot write {f}/relations-w3-cyclic-")
    assert f.read_text() == "kept" and not (tmp_path / "w3.json").exists()


def test_relations_unreadable_cache_entry_exit_3(tmp_path, capsys):
    cache, out_file = tmp_path / "cache", tmp_path / "w3.json"
    assert run(capsys, "relations", "--weight", "3", "--family", "cyclic",
               "--out", str(out_file), "--cache-dir", str(cache))[0] == 0
    [entry] = cache.glob("relations-*.json")
    entry.unlink()
    entry.mkdir()
    err = _write_failure(tmp_path, capsys, "--out", str(out_file), "--cache-dir", str(cache))
    assert err.startswith(f"parse error: cannot read {entry}: ")


def test_relations_cache_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MZF_CACHE_DIR", str(tmp_path / "cache"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    # A miss parses no JSON; a hit parses its entry once, in the reader's one
    # decode call, which converts each row through its object hook.
    for path, cached, parses in ((a, False, 0), (b, True, 1)):
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            code, out, _ = run(capsys, "relations", "--weight", "4", "--family", "csf",
                               "--out", str(path))
        assert (code, loads.call_count) == (0, parses)
        assert all("object_hook" in call.kwargs for call in loads.call_args_list)
        assert json.loads(out)["cached"] is cached
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
    # A well-formed set written by older generator code, which differs.
    older = hashlib.sha256(b"older generator sources").hexdigest()
    monkeypatch.setattr(cli_mod, "_generator_digest", lambda: older)
    assert _cached_relations(capsys, cache, out_file)[0] is False
    [stale] = cache.glob("relations-*.json")
    obj = json.loads(stale.read_text())
    obj["rows"] = obj["rows"][:1]
    stale.write_text(json.dumps(obj))
    monkeypatch.undo()
    assert _cached_relations(capsys, cache, out_file)[0] is False
    assert out_file.read_bytes() == fresh.read_bytes()
    assert _cached_relations(capsys, cache, out_file)[0] is True
    assert len(list(cache.glob("relations-*.json"))) == 1


def test_relations_cache_keeps_other_weights_and_families(tmp_path, capsys):
    """Writing an entry deletes only its own weight and family's entries
    under other keys: w4 is not a prefix match for w40."""
    cache = tmp_path / "cache"
    cache.mkdir()
    kept = [cache / "relations-w40-cyclic-0123456789abcdef.json",
            cache / "relations-w4-csf-0123456789abcdef.json"]
    stale = cache / "relations-w4-cyclic-0123456789abcdef.json"
    for path in (*kept, stale):
        path.write_text("{}")
    assert _cached_relations(capsys, cache, tmp_path / "w4.json")[0] is False
    [entry] = set(cache.glob("relations-*.json")) - set(kept)
    assert entry != stale and not stale.exists()
    assert all(path.read_text() == "{}" for path in kept)


@pytest.mark.parametrize("blob", [
    # the four top-level keys are present but the symbols do not parse
    {"weight": 4, "family": "cyclic", "symbols": ["x"], "rows": []},
    # a well-formed set of another weight
    {"weight": 3, "family": "cyclic", "symbols": ["1,2", "3"],
     "rows": [{"entries": [[0, "1"], [1, "-1"]]}]},
    # a repeated column, which would load as its last value
    {"weight": 4, "family": "cyclic", "symbols": ["1,3", "4"],
     "rows": [{"entries": [[0, "1"], [0, "-1"], [1, "1"]]}]},
    # a symbol that is not a string
    {"weight": 4, "family": "cyclic", "symbols": [4], "rows": []},
    # a repeated symbol, which the rank would take as two
    {"weight": 4, "family": "cyclic", "symbols": ["4", "4"],
     "rows": [{"entries": [[0, "1"]]}, {"entries": [[1, "1"]]}]},
    *(pytest.param(data, id=name) for data, name in zip(UNREADABLE, UNREADABLE_IDS)),
])
def test_relations_cache_recomputes_unusable_entry(tmp_path, capsys, blob):
    cache, out_file, fresh = tmp_path / "cache", tmp_path / "w4.json", tmp_path / "fresh.json"
    assert run(capsys, "relations", "--weight", "4", "--family", "cyclic",
               "--out", str(fresh))[0] == 0
    _cached_relations(capsys, cache, out_file)
    [entry] = cache.glob("relations-*.json")
    entry.write_bytes(blob if type(blob) is bytes else json.dumps(blob).encode())
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


# The sha256 over the relation-set files of every family at weights 3-9, in
# that order, written before relations became mask rows from generator to file.
RELATIONS_W3_W9_SHA256 = "3d6f0231ff98fc72b85b87e80985b9428df8d5c8a5a0a9fe37821fdc1e141182"


def test_relations_weights_3_to_9_match_the_pinned_checksum(tmp_path, capsys):
    h = hashlib.sha256()
    for w in range(3, 10):
        for fam in ("csf", "derivation", "cyclic"):
            out_file = tmp_path / f"w{w}-{fam}.json"
            assert run(capsys, "relations", "--weight", str(w), "--family", fam,
                       "--budget-max-weight", "9", "--out", str(out_file))[0] == 0
            h.update(out_file.read_bytes())
    assert h.hexdigest() == RELATIONS_W3_W9_SHA256


@pytest.mark.parametrize("family, want", [
    ("csf", "8cb5c72d46056b0111cd4f5cdd2227c71db45c6ae6a7b8faa5973c183d7453b2"),
    ("derivation", "520865c076e92dc87f30f1fe775e535470f4aa07ff502c752777b472084b6136"),
    ("cyclic", "89402ca4e3196ca16ce39fb4d33fafc17f4f0246979e10b177444da3c3d7103c"),
])
def test_relations_weight6_matches_recorded_checksum(tmp_path, capsys, family, want):
    out_file = tmp_path / "w6.json"
    code, _, _ = run(capsys, "relations", "--weight", "6", "--family", family,
                     "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == want


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
        return r + 2 if matrix.family == "csf" else r

    monkeypatch.setattr(rel_mod, "rank_exact", inflated)
    code, out, err = run(capsys, "table1", "--max-weight", "5")
    assert code == 5 and out == ""
    assert err.startswith("internal error:") and "weight" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["table1", "--max-weight", "4", "--budget-max-weight", "-1"],
    ["relations", "--weight", "5", "--family", "cyclic", "--budget-max-weight", "-1",
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


def test_table1_repeated_family_is_computed_once(capsys, monkeypatch):
    calls, ranked = [], []
    build, rank = rel_mod.relation_matrix, rel_mod.rank_exact
    monkeypatch.setattr(rel_mod, "relation_matrix",
                        lambda rows, provs: calls.append(len(rows)) or build(rows, provs))
    monkeypatch.setattr(rel_mod, "rank_exact",
                        lambda matrix: ranked.append((matrix.weight, matrix.family))
                        or rank(matrix))
    code, out, _ = run(capsys, "table1", "--max-weight", "4", "--format", "csv",
                       "--families", "cyclic", "csf", "cyclic")
    assert code == 0
    assert out.splitlines() == ["weight,cyclic,csf,all_relations(ref)", "3,1,1,1", "4,2,2,3"]
    # one matrix per weight, over its cyclic configurations (1 at w3, 4 at w4)
    assert calls == [1, 4]
    assert ranked == [(3, "cyclic"), (3, "csf"), (4, "cyclic"), (4, "csf")]


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
    ["relations", "--weight", "3", "--family", "derivation", "--out", "unused.json",
     "--include-d1-derivation", "true"],
    ["table1", "--max-weight", "4", "--include-d1-derivation", "true"],
    # flags eval reads for some kinds but not for the one given
    ["eval", "--kind", "mzf", "--s", "2", "--N", "10", "--shape", "5"],
    ["eval", "--kind", "mt", "--s", "2,1,1", "--N", "10", "--i", "1"],
    ["eval", "--kind", "zeta-c", "--shape", "2", "--s", "1.5,2.5", "--N", "10", "--j", "1"],
    ["eval", "--kind", "zeta-c", "--shape", "2", "--s", "1.5,2.5", "--N", "10",
     "--variant", "diff"],
    ["eval", "--kind", "theorem", "--shape", "1", "--s", "3", "--N", "10", "--variant", "h1"],
    ["eval", "--kind", "theorem", "--shape", "1", "--s", "3", "--N", "10", "--i", "1"],
])
def test_flags_the_subcommand_does_not_read_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("parse error:")


# --- decompose ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--set", "S", "--i", "1", "--exponents", "n1_1:1"],
    ["--set", "S_i", "--i", "1", "--j", "1", "--exponents", "n1_1:1,n:2"],
    ["--set", "S", "--exponents", "n1_1:1", "--N", "5"],
    ["--set", "S", "--count", "--N", "3", "--exponents", "n1_1:1"],
], ids=["S-i", "S_i-j", "exponents-N", "count-exponents"])
def test_decompose_flags_its_set_or_mode_does_not_read_exit_3(capsys, argv):
    code, out, err = run(capsys, "decompose", "--shape", "1", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("parse error: decompose --set") and " does not read --" in err


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


@pytest.mark.parametrize("cs, argv", [
    (build_constraints_S_ij(Shape((1,)), 1, 1),
     ["--shape", "1", "--set", "S_ij", "--i", "1", "--j", "1", "--exponents", "n1_1:1,n:2"]),
    (build_constraints_S_i(Shape((1,)), 1),
     ["--shape", "1", "--set", "S_i", "--i", "1", "--exponents", "n1_1:2 n:1"]),
    (build_constraints_S_i(Shape((2, 2, 2)), 2),
     ["--shape", "2,2,2", "--set", "S_i", "--i", "2", "--exponents",
      "n1_1:2,n1_2:2,n2_1:2,n2_2:2,n3_1:2,n3_2:2,n:2"]),
], ids=["readme", "1-S_i", "2,2,2-S_i"])
def test_decompose_reports_the_number_of_weak_orders(capsys, cs, argv):
    code, out, _ = run(capsys, "decompose", *argv)
    assert code == 0
    assert json.loads(out)["weak_orders"] == len(weak_orders(cs))


def test_decompose_non_admissible_exit_5(capsys):
    code, _, err = run(
        capsys, "decompose", "--shape", "1,1", "--set", "T_i", "--i", "2",
        "--exponents", "n1_1:0,n2_1:0",
    )
    assert code == 5
    assert "partition" in err


def test_decompose_non_admissible_without_enumerating_weak_orders(capsys):
    """(3,3,3,3) S has 9483013 weak orders; the first one in canonical
    order is reported without enumerating them."""
    import time

    exps = ",".join(f"n{i}_{j}:{0 if (i, j) == (1, 1) else 2}"
                    for i in range(1, 5) for j in range(1, 4))
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--shape", "3,3,3,3", "--set", "S",
                         "--exponents", exps)
    assert time.perf_counter() - start < 5
    osp = "(n1_1)(n1_2)(n2_1)(n2_2)(n2_3)(n3_1)(n3_2)(n3_3)(n4_1)(n1_3)(n4_2)(n4_3)"
    assert code == 5 and out == ""
    assert err == (f"non-admissible symbol: weak order {osp} yields non-admissible "
                   f"parts (0, {', '.join(['2'] * 11)}) (partition {osp})\n")


def test_decompose_count_mode(capsys):
    code, out, _ = run(
        capsys, "decompose", "--shape", "1,1", "--set", "T_i", "--i", "2",
        "--count", "--N", "4", "--format", "text",
    )
    assert code == 0
    assert out.strip() == "10"


@pytest.mark.parametrize("mode, code", [(["--count", "--N", "0"], 0), (["--exponents", "n1_1:2"], 3)],
                         ids=["count", "exponents"])
def test_decompose_builds_an_8000_variable_system_at_once(capsys, mode, code):
    """The one-block S system of depth 8000 is built without any pass over
    pairs of its variables: the count at N = 0 is 0, and the exponents it
    lacks exit 3, each well inside the bound."""
    import time

    start = time.perf_counter()
    got, out, err = run(capsys, "decompose", "--shape", "8000", "--set", "S", *mode)
    assert got == code and time.perf_counter() - start < 3
    if code:
        assert out == "" and err.startswith("parse error: missing exponents for n1_2, n1_3, ")
    else:
        assert json.loads(out)["count"] == 0 and err == ""


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


@pytest.mark.parametrize("exponents, message", [
    ("n9_9:3,n1_1:1,n:2", "bad exponent key 'n9_9'"),  # not a variable of the system
    ("n0_1:1,n1_1:1,n:2", "bad exponent key 'n0_1'"),
    ("n:1,n:0,n1_1:1", "exponent of n given twice"),
    ("n1_1:1_0,n:2", "bad exponent value '1_0'"),
    ("n1_1:\uff12,n:2", "bad exponent value"),  # full-width digit two
])
def test_decompose_bad_exponents_exit_3(capsys, exponents, message):
    code, out, err = run(
        capsys, "decompose", "--shape", "1", "--set", "S_ij", "--i", "1", "--j", "1",
        "--exponents", exponents,
    )
    assert code == 3 and out == ""
    assert err.startswith("parse error:") and message in err


@pytest.mark.parametrize("exponents", ["n1_1:1,,n:2", ",n1_1:1 n:2,", "n1_1:1, ,n:2", ""])
def test_decompose_blank_exponent_entry_exit_3(capsys, exponents):
    argv = ["decompose", "--shape", "1", "--set", "S_ij", "--i", "1", "--j", "1", "--exponents"]
    code, out, err = run(capsys, *argv, exponents)
    assert (code, out) == (3, "")
    assert err.startswith("parse error: blank exponent entry")
    # entries separated by spaces, or by commas with spaces around them, parse
    want = run(capsys, *argv, "n1_1:1,n:2")
    assert want[0] == 0
    for spaced in (" n1_1:1  n:2 ", "n1_1:1 , n:2"):
        assert run(capsys, *argv, spaced) == want


def test_decompose_count_grid_too_large_exit_4(capsys, monkeypatch):
    # 2^27 points pass the point limit, but the grid would take 3.25 GiB.
    def indices(*args, **kwargs):
        raise AssertionError("the oracle grid was allocated")

    monkeypatch.setattr(np, "indices", indices)
    code, out, err = run(capsys, "decompose", "--shape", "27", "--set", "S",
                         "--count", "--N", "2")
    assert code == 4 and out == ""
    assert err == "budget exceeded: oracle grid too large\n"


def test_decompose_count_grid_of_more_axes_than_numpy_allows_exit_4(capsys):
    """65 variables pass the point limit at N = 1, but np.indices would need
    65 axes."""
    code, out, err = run(capsys, "decompose", "--shape", "65", "--set", "S",
                         "--count", "--N", "1")
    assert (code, out, err) == (4, "", "budget exceeded: oracle grid too large\n")


@pytest.mark.parametrize("big", ["100000000000000000000", "4000000000"])
def test_decompose_huge_exponent_exit_4(capsys, big):
    """A total exponent above the cap is refused before the engine shifts a
    partial-sum mask that far (an OverflowError, or gigabytes of masks)."""
    code, out, err = run(capsys, "decompose", "--shape", "1", "--set", "S_ij", "--i", "1",
                         "--j", "1", "--exponents", f"n1_1:{big},n:2")
    assert (code, out) == (4, "")
    assert err == f"budget exceeded: total exponent {int(big) + 2} exceeds cap 4096\n"


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


@pytest.mark.parametrize("args", [
    ("--kind", "zeta-c", "--shape", "2,2", "--s", "1.2+0.1i,2.2-0.2i;1.5+0.3i,2.5",
     "--i", "1"),
    ("--kind", "theorem", "--shape", "2,1", "--s", "1.2+0.1i,2.2-0.2i;1.5+0.3i"),
], ids=["zeta-c", "theorem"])
def test_traced_eval_reports_every_series_metric_finite(args):
    """The series paths under the tracer: every series.* name is present,
    the wrapped bindings are called through the module, and the CLI output
    is still the evaluation report.  Plain and coupled sums both walk the
    order-filter DAG, so no series path enumerates weak orders."""
    got = run_traced("eval", *args, "--N-list", "50,100")
    metrics = got["metrics"]
    assert {n for n in DECLARED if n.startswith("series.")} <= set(metrics)
    for name in ("series.chain_plain_calls", "series.pow_vec_calls"):
        assert metrics[name] > 0, name
    assert metrics["series.orders_evaluated"] == 0
    result = json.loads(got["out"])
    assert result["cutoff"] == 100 and len(result["refinements"]) == 2


# --- fuzzed argument lists ---------------------------------------------------

INT = st.one_of(st.integers(-3, 50).map(str), st.sampled_from(["1_0", "\u0661\u0660", " 7 "]))
WEIGHT = st.integers(-1, 5).map(str)
JUNK = st.sampled_from(["", "x", "nan", "1e400", "2.5", "1,2", ";", "--"])
SHAPE = st.sampled_from(["1", "2", "1,1", "2,1", "1;1", "0", "-1", "a", "65"])
COMPLEX = st.sampled_from(["2+0i", "1.5+0.5i", "3", "0.5", "1.5,2.5", "1.5;1.6",
                           "1.2,2.2;1.5", "2-1i,1,1", "1e400", "nan", "x", ""])
N_LIST = st.one_of(st.lists(st.integers(-2, 50), max_size=3).map(lambda v: ",".join(map(str, v))),
                   st.sampled_from(["1_0", "\u0661\u0660", "5,,10", ",5", "5,"]))
EXPONENTS = st.sampled_from(["n1_1:1,n:2", "n1_1:2 n:1", "n1_1:0,n2_1:0",
                             "n1_1:1,n1_2:2,n2_1:2,n:1", "n1_1:-1,n:2", "n0_1:1,n:2",
                             "n:x", "q:1", "", "n1_1:1,,n:2", ",n1_1:1 n:2,",
                             "n1_1:100000000000000000000,n:2"])
FAMILY = st.sampled_from(["csf", "derivation", "cyclic", "bogus"])
# Paths inside the example's own directory: {tmp} is filled in per example.
PATH = st.sampled_from(["{tmp}/set.json", "{tmp}/missing.json", "{tmp}/junk.json",
                        "{tmp}/not-utf8.json", "{tmp}/too-deep.json", "{tmp}"])

OPTIONS = {
    "eval": [("--kind", st.sampled_from(["mzf", "zeta-tilde", "zeta-c", "mt", "theorem", "z"])),
             ("--shape", SHAPE), ("--s", COMPLEX), ("--N", INT), ("--N-list", N_LIST),
             ("--i", INT), ("--j", INT), ("--budget-max-n", INT),
             ("--variant", st.sampled_from(["1", "2", "diff", "h1", "h2", "3"]))],
    "domain": [("--shape", SHAPE), ("--s", COMPLEX)],
    "relations": [("--weight", WEIGHT), ("--family", FAMILY), ("--out", PATH),
                  ("--budget-max-weight", WEIGHT), ("--cache-dir", PATH)],
    "rank": [("--in", PATH)],
    "table1": [("--max-weight", WEIGHT), ("--families", FAMILY),
               ("--budget-max-weight", WEIGHT)],
    "decompose": [("--shape", SHAPE), ("--set", st.sampled_from(["S", "S_i", "S_ij", "T_i", "U"])),
                  ("--i", INT), ("--j", INT), ("--exponents", EXPONENTS), ("--count", None),
                  ("--N", INT)],
}
COMMON = [("--format", st.sampled_from(["json", "csv", "text", "xml"]))]


def test_main_shares_one_parser_and_carries_nothing_between_calls(capsys, monkeypatch):
    """Calls of main in one process print what each would print with a
    parser of its own, whatever the calls before set."""
    runs = [
        ("table1", "--max-weight", "5", "--budget-max-weight", "5", "--format", "csv"),
        ("table1", "--max-weight", "5", "--budget-max-weight", "5"),
        ("table1", "--max-weight", "5", "--families", "csf", "--format", "text",
         "--budget-max-weight", "5"),
        ("table1", "--max-weight", "4", "--format", "text"),
        ("decompose", "--shape", "2,1", "--set", "S", "--count", "--N", "5", "--format", "text"),
        ("decompose", "--shape", "2,1", "--set", "S_i", "--i", "1", "--exponents",
         "n1_1:1,n1_2:2,n2_1:1,n:2"),
        ("eval", "--kind", "mzf", "--s", "2", "--N-list", "10,20", "--format", "csv"),
        ("eval", "--kind", "mzf", "--s", "2", "--N", "20"),
        ("eval", "--kind", "mzf", "--s", "2", "--N", "20.5"),
        ("table1", "--max-weight", "9"),
    ]
    assert build_parser() is build_parser()
    shared = [run(capsys, *argv) for argv in runs]
    monkeypatch.setattr(cli_mod, "build_parser", build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in runs] == shared
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 0, 0, 3, 4]
    assert shared[0][1] != shared[1][1]


def test_fuzzed_options_are_the_parser_flags():
    """Every subcommand and flag the parser defines is fuzzed, and no other."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    defined = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
               for name, sp in sub.choices.items()}
    fuzzed = {name: {flag for flag, _ in opts + COMMON} for name, opts in OPTIONS.items()}
    assert fuzzed == defined


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
        for name, data in zip(UNREADABLE_IDS[1:], UNREADABLE[1:]):
            Path(tmp, f"{name}.json").write_bytes(data)
        argv = [a.replace("{tmp}", tmp) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
