import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trirank import analytic, cli, decomp, rankprofile, slicerank, tensor, variety
from trirank.errors import BudgetExceeded, VerificationFailed
from trirank.fields import make_field

F3 = make_field(3)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.fixture
def levi_path(tmp_path):
    path = tmp_path / "levi.t"
    tensor.dump(tensor.levi_civita(F3), str(path))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_ar_subcommand(levi_path, tmp_path):
    out = tmp_path / "ar.json"
    rc = cli.run(["ar", "--tensor", levi_path, "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["schema"] == 2
    assert rep["ar"]["zero_count"] == 105


def test_ar_histogram_csv(levi_path, tmp_path):
    out = tmp_path / "hist.csv"
    rc = cli.run(["ar", "--tensor", levi_path, "--histogram", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("b_vector,count")
    assert len(lines) == 1 + 27
    counts = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
    assert sum(counts) == 729 and counts[0] == 105
    # over F_9 with n3 = 2, b vectors list coordinate 0 first and lowest
    path = tmp_path / "f9.t"
    tensor.dump(tensor.random_tensor(make_field(3, 2), (2, 2, 2), seed=0), str(path))
    assert cli.run(["ar", "--tensor", str(path), "--histogram", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 81
    assert lines[2].startswith("1:0,") and lines[10].startswith("0:1,")
    assert lines[81].startswith("8:8,")


def test_histogram_csv_is_written_chunk_by_chunk(tmp_path, monkeypatch):
    # 3^10 = 59,049 b vectors: eight CHUNK blocks, the last one short
    path, out = tmp_path / "tall.t", tmp_path / "h.csv"
    path.write_text("tensor 3^1 1 1 10\n0 0 3 1\n0 0 9 2\n")
    spans = []

    def recording(q, n, start, stop):
        spans.append(stop - start)
        return rankprofile.point_block(q, n, start, stop)

    monkeypatch.setattr(cli, "point_block", recording)
    assert cli.run(["ar", "--tensor", str(path), "--histogram", str(out)]) == 0
    assert max(spans) <= rankprofile.CHUNK and sum(spans) == 3 ** 10
    hist = analytic.min_entropy(tensor.load(str(path))).histogram
    rows = ["b_vector,count"] + [
        f"{':'.join(map(str, b))},{c}" for b, c in zip(rankprofile.point_block(3, 10, 0, 3 ** 10), hist)
    ]
    assert out.read_text().splitlines() == rows


def test_gr_subcommand(levi_path, tmp_path):
    out = tmp_path / "gr.json"
    rc = cli.run(["gr", "--tensor", levi_path, "--kmax", "3", "--cross-check",
                  "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["gr"]["gr"] == 2
    assert rep["gr"]["consistent"] is True


def test_sr_subcommand_and_bounds(levi_path, tmp_path):
    out = tmp_path / "sr.json"
    assert cli.run(["sr", "--tensor", levi_path, "--out", str(out)]) == 0
    assert read_json(out)["sr"]["lo"] == 3
    assert cli.run(["sr", "--tensor", levi_path, "--exact", "--out", str(out)]) == 0
    exact = read_json(out)["sr"]
    assert exact["method"] == "annihilator_exact" and exact["lo"] == exact["hi"] == 3
    assert cli.run(["sr", "--tensor", levi_path, "--bounds", "--out", str(out)]) == 0
    b = read_json(out)["sr"]
    assert b["lo"] <= 3 <= b["hi"]


def test_chain_subcommand_exit_codes(levi_path, tmp_path):
    out = tmp_path / "chain.json"
    rc = cli.run(["chain", "--tensor", levi_path, "--field", "3^1", "--kmax", "3",
                  "--seed", "7", "--out", str(out)])
    assert rc == 0
    rep = read_json(out)["chain"]
    assert rep["sr"]["lo"] == 3 and rep["gr"]["gr"] == 2
    # field assertion mismatch is a usage error
    assert cli.run(["chain", "--tensor", levi_path, "--field", "5^1"]) == 2


@pytest.mark.parametrize("header, extra, rc, err", [
    # a zero tensor is not ranked: AR's budget refuses its 3^2001 input pairs first
    ("tensor 3^1 2000 1 1", [], 2, "error: q^(n1+n2) = 3^2001 exceeds budget 100000000\n"),
    ("tensor 3^1 2000 1 1", ["--kmax", "1"], 2, "error: kmax must be >= 2\n"),
    ("tensor 2^1 2000 1 1", [], 0, ""),  # GR 0 without a count, and no AR over F_2
], ids=["zero_f3", "kmax_1", "zero_f2"])
def test_chain_errors_come_in_the_one_tensor_order(tmp_path, monkeypatch, capsys,
                                                    header, extra, rc, err):
    monkeypatch.delenv("TRIRANK_BUDGET", raising=False)
    path = tmp_path / "tall.t"
    path.write_text(header + "\n")
    assert cli.run(["chain", "--tensor", str(path), *extra]) == rc
    out, got = capsys.readouterr()
    assert got == err
    if rc:
        assert out == ""
    else:
        rep = json.loads(out)["chain"]
        assert rep["gr"]["gr"] == 0 and rep["ar_skipped"] and rep["ar"] is None


def test_decompose_and_verify_round_trip(levi_path, tmp_path):
    dpath = tmp_path / "d.json"
    rc = cli.run(["decompose", "--tensor", levi_path, "--kwork", "3", "--seed", "7",
                  "--out", str(dpath)])
    assert rc == 0
    assert read_json(dpath)["verified"] is True
    assert cli.run(["verify", "--tensor", levi_path, "--decomp", str(dpath)]) == 0
    # verifying against a different tensor fails with exit 1
    other = tmp_path / "i3.t"
    tensor.dump(tensor.identity_tensor(F3, 3), str(other))
    assert cli.run(["verify", "--tensor", str(other), "--decomp", str(dpath)]) == 1


def test_verify_rejects_a_decomposition_over_a_foreign_field(tmp_path):
    # the one term reproduces the entry code 1 over F_5, but F_3 does not embed there
    tpath = tmp_path / "i1.t"
    tensor.dump(tensor.identity_tensor(F3, 1), str(tpath))
    term = {"direction": "x", "linear": [1], "bilinear": [[1]]}
    dpath = tmp_path / "d.json"
    for field, rc in (("3^2", 0), ("5^1", 1)):
        dpath.write_text(json.dumps({"field": field, "dims": [1, 1, 1], "terms": [term]}))
        assert cli.run(["verify", "--tensor", str(tpath), "--decomp", str(dpath)]) == rc


OUT_OF_FIELD = {"field": "3^1", "dims": [1, 1, 1],
                "terms": [{"direction": "x", "linear": [7], "bilinear": [[1]]}]}


@pytest.mark.parametrize("text", ["{}", "[1, 2]", "{not json", json.dumps(OUT_OF_FIELD)])
def test_verify_rejects_a_malformed_decomposition(levi_path, tmp_path, capsys, text):
    path = tmp_path / "d.json"
    path.write_text(text)
    assert cli.run(["verify", "--tensor", levi_path, "--decomp", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_szcheck_subcommand(tmp_path):
    spath = tmp_path / "sys.txt"
    spath.write_text("x1*x2")
    out = tmp_path / "sz.json"
    rc = cli.run(["szcheck", "--system", str(spath), "--field", "3^1",
                  "--nvars", "2", "--kmax", "3", "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["sz"]["holds"] and rep["sz"]["lhs"] == "5/9"
    # syntax errors are usage errors
    spath.write_text("x1 +* x2")
    assert cli.run(["szcheck", "--system", str(spath), "--field", "3^1",
                    "--nvars", "2"]) == 2


def test_szcheck_refuses_kmax_below_2_before_reading_the_system(tmp_path, monkeypatch, capsys):
    # a term at the power budget takes about a second to expand; --kmax 1 is
    # refused first, even when the system file does not exist
    def parse(*args):
        raise AssertionError("the system was parsed")

    monkeypatch.setattr(variety, "parse_poly_system", parse)
    for name in ("missing.txt", "sys.txt"):
        (tmp_path / "sys.txt").write_text("(x1+x2+x3+x4+x5)^20" + "*x1" * 200)
        argv = ["szcheck", "--system", str(tmp_path / name), "--field", "7^1", "--nvars", "5"]
        assert cli.run(argv + ["--kmax", "1"]) == 2
        assert capsys.readouterr().err == "error: kmax must be >= 2\n"


def test_extremal_and_closeness(tmp_path):
    prefix = str(tmp_path / "pair")
    rc = cli.run(["extremal", "--r", "1", "--t", "1", "--n", "2", "--field", "3^1",
                  "--out-prefix", prefix])
    assert rc == 0
    out = tmp_path / "close.json"
    rc = cli.run(["closeness", "--f", prefix + "_f.t", "--g", prefix + "_g.t",
                  "--out", str(out)])
    assert rc == 0
    assert read_json(out)["closeness"]["delta"] == "25/81"


def test_missing_file_and_bad_usage():
    assert cli.run(["ar", "--tensor", "/nonexistent/missing.t"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run([]) == 2


@pytest.mark.parametrize("header", [
    "tensor 3^1 4000000000 4000000000 1",  # too many bytes
    "tensor 3^1 100000000000000000000 2 2",  # a dimension past the index range
])
def test_huge_tensor_dims_are_a_format_error(tmp_path, capsys, header):
    path = tmp_path / "huge.t"
    path.write_text(header + "\n")
    assert cli.run(["ar", "--tensor", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large" in err and "Traceback" not in err


@pytest.mark.parametrize("header", ["tensor 3^1 2 0 3", "tensor 3^1 0 2 2", "tensor 2^1 3 3 0"])
def test_zero_size_axis_has_slice_rank_zero(tmp_path, header):
    path, out = tmp_path / "empty.t", tmp_path / "out.json"
    path.write_text(header + "\n")
    assert cli.run(["sr", "--tensor", str(path), "--out", str(out)]) == 0
    sr = read_json(out)["sr"]
    assert (sr["lo"], sr["hi"], sr["method"]) == (0, 0, "vertex_cover")
    assert cli.run(["chain", "--tensor", str(path), "--kmax", "2", "--out", str(out)]) == 0
    chain_sr = read_json(out)["chain"]["sr"]
    assert (chain_sr["lo"], chain_sr["hi"], chain_sr["method"]) == (0, 0, "vertex_cover")


@pytest.mark.parametrize("argv", [
    ["ar", "--tensor", "wide.t"],
    ["chain", "--tensor", "wide.t"],
    ["closeness", "--f", "wide.t", "--g", "wide.t"],
    ["ar", "--tensor", "tall.t", "--histogram", "h.csv"],
    # sz_check needs an exact k = 1 count: 3^nvars points, checked before parsing
    ["szcheck", "--system", "sys.txt", "--field", "3^1", "--nvars", "100000000", "--kmax", "2"],
    ["szcheck", "--system", "sys.txt", "--field", "3^1", "--nvars", "30", "--kmax", "2"],
    # closeness counts the 3^(2n) input pairs: checked before the pair is built or written
    ["extremal", "--r", "1", "--t", "1", "--n", "100000", "--field", "3^1", "--out-prefix", "big"],
    ["extremal", "--r", "1", "--t", "1", "--n", "9", "--field", "3^1", "--out-prefix", "big"],
])
def test_budget_rejects_a_huge_empty_axis_at_once(tmp_path, argv):
    # q^n with n = 10^8 must not be formed; a subprocess turns a stall into a failure
    (tmp_path / "wide.t").write_text("tensor 3^1 0 100000000 1\n")
    (tmp_path / "tall.t").write_text("tensor 3^1 0 1 100000000\n")
    (tmp_path / "sys.txt").write_text("x1*x2 - 1\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "trirank.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "exceed" in proc.stderr
    assert not list(tmp_path.glob("*_f.t"))


def run_cli(tmp_path, text, argv):
    """`python -m trirank.cli argv` in tmp_path, with the tensor file t.t holding `text`."""
    (tmp_path / "t.t").write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "trirank.cli", argv[0], "--tensor", "t.t", *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("header,axis", [
    ("tensor 3^1 0 100000000 1", "y"), ("tensor 3^1 0 1 100000000", "z"),
])
def test_gr_of_a_huge_empty_axis_is_zero_at_once(tmp_path, header, axis):
    # a zero tensor's GR needs no counts: neither q^n nor n-wide draws may be formed
    proc = run_cli(tmp_path, header + "\n", ["gr", "--axis", axis, "--cross-check"])
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)["gr"]
    assert (rep["gr"], rep["argmin_r"], rep["stable"], rep["consistent"]) == (0, 0, True, True)
    assert list(rep["strata"]) == ["0"]


# every x slice has an entry at (y, z) = (0, 0): the x axis is one summand of 14
# coordinates, above the budget at k = 1 and 2
ONE_SUMMAND_14 = "".join(f"{i} 0 0 1\n" for i in range(14)) + "13 5 0 2\n"


@pytest.mark.parametrize("text,argv", [
    ("tensor 3^1 700 1 1\n0 0 0 1\n", ["gr"]),  # the x levels would count 3^700 points
    ("tensor 3^1 700 1 1\n0 0 0 1\n", ["decompose"]),
    ("tensor 3^1 1 700 1\n0 0 0 1\n", ["gr", "--axis", "y"]),
    # sampled x levels, whose kernel count scales past the float range
    ("tensor 3^1 14 700 1\n" + ONE_SUMMAND_14, ["gr", "--kmax", "2", "--cross-check"]),
    # the k = 2 kernel mean fits a float, its product with the 9^14 points does not
    ("tensor 3^1 14 320 1\n" + ONE_SUMMAND_14, ["gr", "--kmax", "2", "--cross-check"]),
], ids=["gr_700x1x1", "decompose_700x1x1", "gr_y_1x700x1", "gr_cross_check_14x700x1",
        "gr_cross_check_14x320x1"])
def test_counts_past_the_float_range_are_a_budget_error(tmp_path, text, argv):
    proc = run_cli(tmp_path, text, argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "past the float range" in proc.stderr


@pytest.mark.parametrize("kmax", ["2", "3"])
def test_exact_kernel_counts_past_the_float_range_give_a_slope(tmp_path, kmax):
    # the exact kernel counts are about 3^(700 k): their quotient does not fit a float
    text = "tensor 3^1 1 700 1\n0 0 0 1\n"
    proc = run_cli(tmp_path, text, ["gr", "--kmax", kmax, "--cross-check"])
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)["gr"]
    assert rep["gr"] == 1 and rep["stable"]
    assert rep["consistent"] is (True if kmax == "3" else None)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_gr_needs_a_sample_where_it_must_sample(tmp_path, capsys, samples):
    path, out = tmp_path / "t.t", tmp_path / "gr.json"
    tensor.dump(tensor.random_tensor(F3, (2, 2, 2), seed=0), str(path))
    rc = cli.run(["gr", "--tensor", str(path), "--kmax", "3", "--mc-samples", samples,
                  "--budget", "1", "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mc_samples" in err


@pytest.mark.parametrize("argv", [
    ["gr", "--tensor", "t2.t"],  # T_2's k = 3 level is sampled
    ["chain", "--tensor", "t2.t"],
    ["decompose", "--tensor", "t2.t"],
    ["corpus"],
    ["szcheck", "--system", "sys.txt", "--field", "3^1", "--nvars", "2", "--kmax", "3",
     "--budget", "100"],
])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    tensor.dump(tensor.tk_family(F3, 2), "t2.t")
    (tmp_path / "sys.txt").write_text("x1*x2 - 1\n")
    assert cli.run(argv + ["--seed", "-1"]) == 2
    assert "argument --seed: -1 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("system", ["", "2", "x1*x2 - 1"])
def test_negative_nvars_is_a_usage_error(tmp_path, capsys, system):
    spath = tmp_path / "sys.txt"
    spath.write_text(system)
    assert cli.run(["szcheck", "--system", str(spath), "--field", "3^1", "--nvars", "-1"]) == 2
    assert "argument --nvars: -1 is negative" in capsys.readouterr().err


def test_malformed_budget_env_is_a_usage_error(levi_path, monkeypatch, capsys):
    monkeypatch.setenv("TRIRANK_BUDGET", "abc")
    assert cli.run(["ar", "--tensor", levi_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "TRIRANK_BUDGET" in err
    assert "Traceback" not in err
    monkeypatch.setenv("TRIRANK_BUDGET", "10")
    assert cli.run(["ar", "--tensor", levi_path]) == 2  # 3^6 pairs exceed it
    assert "exceeds budget 10" in capsys.readouterr().err
    monkeypatch.setenv("TRIRANK_BUDGET", "abc")  # sr takes no budget, so never reads it
    assert cli.run(["sr", "--tensor", levi_path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["gr", "ar"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_budget_is_a_usage_error(tmp_path, monkeypatch, capsys, command, source):
    # a 2x2x2 over F_3 would otherwise sample every level, or exceed the budget
    path = tmp_path / "t.t"
    tensor.dump(tensor.random_tensor(F3, (2, 2, 2), seed=0), str(path))
    argv, out = [command, "--tensor", str(path)], tmp_path / "out.json"
    if source == "flag":
        argv += ["--budget", "-1"]
    else:
        monkeypatch.setenv("TRIRANK_BUDGET", "-5")
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert "error: budget must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    # a budget of 0 is allowed: gr samples every level, ar's 3^4 pairs exceed it
    monkeypatch.setenv("TRIRANK_BUDGET", "0")
    want = {"gr": 0, "ar": 2}[command]
    assert cli.run([command, "--tensor", str(path), "--out", str(out)]) == want


def test_gr_honours_budget_env(levi_path, tmp_path, monkeypatch):
    def exact_by_level():
        out = tmp_path / "gr.json"
        assert cli.run(["gr", "--tensor", levi_path, "--kmax", "2", "--mc-samples", "2000",
                        "--out", str(out)]) == 0
        strata = read_json(out)["gr"]["strata"].values()
        return {c["k"]: c["exact"] for est in strata for c in est["counts"]}

    assert exact_by_level() == {1: True, 2: True}
    monkeypatch.setenv("TRIRANK_BUDGET", "100")  # 3^3 points at k = 1, 9^3 at k = 2
    assert exact_by_level() == {1: True, 2: False}


def test_contradictory_sr_bounds_exit_2(levi_path, tmp_path, capsys):
    gr_path = tmp_path / "gr.json"
    gr_path.write_text(json.dumps({"gr": {"gr": 5}}))
    rc = cli.run(["sr", "--tensor", levi_path, "--bounds", "--gr-from", str(gr_path)])
    assert rc == 2
    assert "lower bound 5 exceeds upper bound 3" in capsys.readouterr().err


def test_sr_exact_meets_the_bound_reports(tmp_path, capsys):
    path, gr_path = str(tmp_path / "r1.t"), tmp_path / "gr.json"
    tensor.dump(tensor.random_tensor(F3, (3, 3, 3), seed=1), path)  # SR 3
    gr_path.write_text(json.dumps({"gr": {"gr": 4}}))
    assert cli.run(["sr", "--tensor", path, "--exact", "--gr-from", str(gr_path)]) == 2
    assert "slice rank 3 is below the lower bound 4" in capsys.readouterr().err
    gr_path.write_text(json.dumps({"gr": {"gr": 3}}))
    out = tmp_path / "sr.json"
    assert cli.run(["sr", "--tensor", path, "--exact", "--gr-from", str(gr_path),
                    "--out", str(out)]) == 0
    assert read_json(out)["sr"] == {"lo": 3, "hi": 3, "method": "annihilator_exact",
                                    "exact": True, "three_gr_bound": 9}


@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["default", "exact"])
def test_sr_takes_no_bound_from_an_unstable_gr(levi_path, tmp_path, capsys, exact):
    gr_path, out = tmp_path / "gr.json", tmp_path / "sr.json"
    argv = ["sr", "--tensor", levi_path, *exact, "--gr-from", str(gr_path), "--out", str(out)]
    gr_path.write_text(json.dumps({"gr": {"gr": 4, "stable": False}}))
    assert cli.run(argv) == 0
    sr = read_json(out)["sr"]
    assert (sr["lo"], sr["hi"], sr["three_gr_bound"]) == (3, 3, None)
    gr_path.write_text(json.dumps({"gr": {"gr": 4, "stable": True}}))  # SR 3 contradicts it
    assert cli.run(argv) == 2
    assert "bound 4" in capsys.readouterr().err


@pytest.mark.parametrize("writer,reader", [
    (["decompose", "--kwork", "3", "--seed", "7"], ["verify", "--decomp"]),
    (["ar"], ["sr", "--ar-from"]),
    (["gr", "--kmax", "3"], ["sr", "--exact", "--gr-from"]),
], ids=["verify_decomp", "sr_ar_from", "sr_gr_from"])
def test_reports_of_either_schema_are_read_alike(levi_path, tmp_path, capsys, writer, reader):
    # schema 2 writes a report on one line; schema 1 wrote the same object indented
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    assert cli.run([writer[0], "--tensor", levi_path, *writer[1:], "--out", str(new)]) == 0
    text = new.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    report = json.loads(text)
    assert report["schema"] == 2
    old.write_text(json.dumps({**report, "schema": 1}, indent=2, sort_keys=True) + "\n")
    outcomes = []
    for path in (new, old):
        rc = cli.run([reader[0], "--tensor", levi_path, *reader[1:], str(path)])
        outcomes.append((rc, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0


@pytest.mark.parametrize("flag,report", [
    ("--gr-from", {"gr": {}}),  # the key is missing
    ("--gr-from", {"gr": {"gr": "2"}}),  # not a number
    ("--gr-from", {"gr": {"gr": True}}),
    ("--gr-from", ["gr"]),
    ("--ar-from", {"gr": {"gr": 2}}),
    ("--ar-from", {"ar": {"value": None}}),
    ("--gr-from", {"gr": {"gr": -5}}),  # a rank is never negative
    ("--ar-from", {"ar": {"value": -3.5}}),
    ("--ar-from", {"ar": {"value": float("nan")}}),
    ("--ar-from", {"ar": {"value": float("inf")}}),  # no AR is infinite: f(0, y) = 0
])
def test_sr_rejects_a_malformed_bound_report(levi_path, tmp_path, capsys, flag, report):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(report))
    assert cli.run(["sr", "--tensor", levi_path, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    path.write_text("{not json")
    assert cli.run(["sr", "--tensor", levi_path, flag, str(path)]) == 2


def test_budget_only_on_subcommands_that_read_it(levi_path, capsys):
    tensor_arg = ["--tensor", levi_path]
    for argv in (["sr"] + tensor_arg, ["decompose"] + tensor_arg, ["corpus"],
                 ["verify", "--decomp", "d.json"] + tensor_arg):
        assert cli.run(argv + ["--budget", "10"]) == 2
        assert "unrecognized arguments: --budget 10" in capsys.readouterr().err
    assert cli.run(["ar", "--tensor", levi_path, "--budget", "10"]) == 2  # 3^6 pairs exceed it
    assert "unrecognized" not in capsys.readouterr().err


def test_reports_are_byte_identical_for_fixed_seed(levi_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = cli.run(["chain", "--tensor", levi_path, "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_corpus_smoke(tmp_path, monkeypatch):
    # shrink the random block so the smoke test stays fast
    def small_corpus(seed):
        return [
            ("identity_2", tensor.identity_tensor(F3, 2)),
            ("levi_civita", tensor.levi_civita(F3)),
        ] + [
            (f"random_{i}", tensor.random_tensor(F3, (3, 3, 3), seed=seed ^ i))
            for i in range(3)
        ]

    monkeypatch.setattr(cli, "builtin_corpus", small_corpus)
    out_dir = tmp_path / "corpus"
    out = tmp_path / "summary.json"
    rc = cli.run(["corpus", "--seed", "7", "--out-dir", str(out_dir),
                  "--out", str(out)])
    assert rc == 0
    summary = read_json(out)["summary"]
    assert summary["items"] == 5 and summary["errors"] == 0
    assert summary["max_sr_gr_ratio"] == "3/2"
    csv_lines = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 6
    # the summary and every item report: one line of schema-2 JSON and a newline
    for path in [out, *out_dir.glob("*.json")]:
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["schema"] == 2
    assert (out_dir / "levi_civita.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_profile_error_is_one_corpus_items_error_row(tmp_path, monkeypatch, workers):
    items = [(f"identity_{n}", tensor.identity_tensor(F3, n)) for n in (1, 2, 3, 4)] + [
        (f"random_{i}", tensor.random_tensor(F3, (3, 3, 3), seed=i)) for i in range(4)
    ]
    bad = items[1][1]
    monkeypatch.setattr(cli, "builtin_corpus", lambda seed: items)
    argv = ["corpus", "--seed", "7", "--workers", workers]
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "good")])
    assert rc == 0
    rank_profiles = rankprofile.rank_profiles

    def failing(tensors, *args, **kwargs):
        if any(T is bad for T in tensors):
            raise BudgetExceeded("no profile")
        return rank_profiles(tensors, *args, **kwargs)

    # the corpus ranks every item at once, and an item alone through rank_profile
    monkeypatch.setattr(slicerank, "rank_profiles", failing)
    monkeypatch.setattr(rankprofile, "rank_profiles", failing)
    chains, verify_rank_chains = [], slicerank.verify_rank_chains

    def counted(tensors, *args, **kwargs):
        chains.append(len(tensors))
        return verify_rank_chains(tensors, *args, **kwargs)

    monkeypatch.setattr(slicerank, "verify_rank_chains", counted)
    out = tmp_path / "summary.json"
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "bad"), "--out", str(out)])
    assert rc == 0 and read_json(out)["summary"]["errors"] == 1
    assert read_json(tmp_path / "bad" / "identity_2.json")["error"] == "BudgetExceeded: no profile"
    # the failing stack is halved down to the bad item: 8, 4, 2, 1 + 1, then 2 and 4 pass
    assert chains == [8, 4, 2, 1, 1, 2, 4]
    for name, _ in items[:1] + items[2:]:
        assert (tmp_path / "bad" / f"{name}.json").read_bytes() == (
            tmp_path / "good" / f"{name}.json"
        ).read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_search_error_is_one_corpus_items_error_row(tmp_path, monkeypatch, workers):
    items = [("identity_2", tensor.identity_tensor(F3, 2))] + [
        (f"random_{i}", tensor.random_tensor(F3, (3, 3, 3), seed=i)) for i in range(3)
    ]
    bad = items[2][1]
    monkeypatch.setattr(cli, "builtin_corpus", lambda seed: items)
    argv = ["corpus", "--seed", "7", "--workers", workers]
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "good")])
    assert rc == 0
    pair_searches = slicerank._pair_searches

    def failing(tensors):
        if any(T is bad for T in tensors):
            raise BudgetExceeded("no search")
        return pair_searches(tensors)

    # the corpus searches its three random items as one stack, and an item alone
    monkeypatch.setattr(slicerank, "_pair_searches", failing)
    out = tmp_path / "summary.json"
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "bad"), "--out", str(out)])
    assert rc == 0 and read_json(out)["summary"]["errors"] == 1
    assert read_json(tmp_path / "bad" / "random_1.json")["error"] == "BudgetExceeded: no search"
    for name in ("identity_2", "random_0", "random_2"):
        assert (tmp_path / "bad" / f"{name}.json").read_bytes() == (
            tmp_path / "good" / f"{name}.json"
        ).read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_decomposition_error_is_one_corpus_items_error_row(tmp_path, monkeypatch, workers):
    items = [("identity_2", tensor.identity_tensor(F3, 2))]
    items += [("levi_civita", tensor.levi_civita(F3))]
    items += [(f"random_{i}", tensor.random_tensor(F3, (3, 3, 3), seed=i)) for i in range(3)]
    bad = items[3][1]
    monkeypatch.setattr(cli, "builtin_corpus", lambda seed: items)
    argv = ["corpus", "--seed", "7", "--workers", workers]
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "good")])
    assert rc == 0
    tangent_attempts = decomp._tangent_attempts

    def failing(attempts):
        if any(np.array_equal(Tw.entries, bad.entries) for Tw, *_ in attempts):
            raise VerificationFailed("no decomposition")
        return tangent_attempts(attempts)

    # the corpus decomposes its 3x3x3 items as one stack, and an item alone
    monkeypatch.setattr(decomp, "_tangent_attempts", failing)
    out = tmp_path / "summary.json"
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "bad"), "--out", str(out)])
    assert rc == 0 and read_json(out)["summary"]["errors"] == 1
    assert read_json(tmp_path / "bad" / "random_1.json")["error"] == (
        "VerificationFailed: no decomposition"
    )
    for name in ("identity_2", "levi_civita", "random_0", "random_2"):
        assert (tmp_path / "bad" / f"{name}.json").read_bytes() == (
            tmp_path / "good" / f"{name}.json"
        ).read_bytes()


@pytest.mark.parametrize("kwork", ["0", "7"])
def test_corpus_rejects_a_bad_working_degree_before_the_batch(tmp_path, monkeypatch, capsys, kwork):
    ran = []
    monkeypatch.setattr(slicerank, "verify_rank_chains", lambda *args, **kw: ran.append(args))
    monkeypatch.setattr(decomp, "slice_decompositions", lambda *args: ran.append(args))
    out_dir, out = tmp_path / "corpus", tmp_path / "summary.json"
    rc = cli.run(["corpus", "--kwork", kwork, "--out-dir", str(out_dir), "--out", str(out)])
    assert rc == 2 and ran == []
    assert not out_dir.exists() and not out.exists()
    assert capsys.readouterr().err.startswith("error:")


def test_builtin_corpus_contents():
    items = cli.builtin_corpus(seed=0)
    names = [n for n, _ in items]
    assert names[:6] == ["identity_1", "identity_2", "identity_3", "identity_4",
                         "levi_civita", "t2_direct_sum"]
    assert len(items) == 56


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_run_dispatches_on_every_subcommand():
    assert tuple(_subcommands(cli.build_parser())) == cli._COMMANDS


PARSE_CASES = [[], ["-h"], ["bogus"], ["--bogus"]] + [
    [name] + extra
    for name in cli._COMMANDS
    for extra in (["-h"], [], ["--bogus"], ["--tensor", "x", "--bogus", "1"], ["--seed", "-1"],
                  ["--kmax", "z"])
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_run_parses_as_the_full_parser_does(argv, monkeypatch, capsys):
    """Help, usage errors and parsed options are those of the ten-command parser."""
    monkeypatch.delenv("TRIRANK_BUDGET", raising=False)

    def parsed(args):  # stands in for every command: what was parsed, not run
        print(sorted((k, v) for k, v in vars(args).items() if k != "func"))
        return 0

    for name in cli._COMMANDS:
        monkeypatch.setattr(cli, f"_cmd_{name}", parsed)
    rc = cli.run(argv)
    got = capsys.readouterr()
    try:
        want_rc = parsed(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        want_rc = 2 if exc.code else 0
    want = capsys.readouterr()
    assert (rc, got.out, got.err) == (want_rc, want.out, want.err)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_malformed_budget_env_leaves_parsing_alone(argv, monkeypatch, capsys):
    """Only a command that uses a budget reads TRIRANK_BUDGET, and only when it runs."""
    for name in cli._COMMANDS:  # the one command these cases reach, corpus, is not run
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: 0)
    monkeypatch.delenv("TRIRANK_BUDGET", raising=False)
    unset = (cli.run(argv), *capsys.readouterr())
    monkeypatch.setenv("TRIRANK_BUDGET", "abc")
    assert (cli.run(argv), *capsys.readouterr()) == unset


def test_budget_option_is_read_before_the_env(levi_path, tmp_path, monkeypatch):
    monkeypatch.setenv("TRIRANK_BUDGET", "abc")
    out = tmp_path / "ar.json"
    assert cli.run(["ar", "--tensor", levi_path, "--budget", "1000", "--out", str(out)]) == 0
    assert read_json(out)["ar"]["zero_count"] == 105


def test_a_command_builds_only_its_own_subparser(levi_path, tmp_path, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.run(["sr", "--tensor", levi_path, "--out", str(tmp_path / "sr.json")]) == 0
    assert built == ["sr"]
