import json
import os
import subprocess
import sys

import pytest

from trirank import cli, rankprofile, tensor
from trirank.errors import BudgetExceeded
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
    assert rep["schema"] == 1
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
    assert read_json(out)["sr"] == read_json(out)["sr"]
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
    assert (out_dir / "levi_civita.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_profile_error_is_one_corpus_items_error_row(tmp_path, monkeypatch, workers):
    items = [(f"identity_{n}", tensor.identity_tensor(F3, n)) for n in (1, 2, 3)]
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
    monkeypatch.setattr(cli, "rank_profiles", failing)
    monkeypatch.setattr(rankprofile, "rank_profiles", failing)
    out = tmp_path / "summary.json"
    rc = cli.run(argv + ["--out-dir", str(tmp_path / "bad"), "--out", str(out)])
    assert rc == 0 and read_json(out)["summary"]["errors"] == 1
    assert read_json(tmp_path / "bad" / "identity_2.json")["error"] == "BudgetExceeded: no profile"
    for name in ("identity_1", "identity_3"):
        assert (tmp_path / "bad" / f"{name}.json").read_bytes() == (
            tmp_path / "good" / f"{name}.json"
        ).read_bytes()


@pytest.mark.parametrize("kwork", ["0", "7"])
def test_corpus_rejects_a_bad_working_degree_before_the_batch(tmp_path, monkeypatch, capsys, kwork):
    ran = []
    monkeypatch.setattr(cli, "_corpus_item", lambda *args: ran.append(args))
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
