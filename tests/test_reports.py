import hashlib
import json

from trirank import biascx, cli, decomp, geometric, slicerank, tensor
from trirank.fields import make_field

F2, F3, F5 = make_field(2), make_field(3), make_field(5)


def sha(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def test_report_bytes_are_pinned(tmp_path):
    # digests of each report's to_dict() JSON: a verdict, ratio or status
    # that moves changes the bytes the corpus and the CLI write
    f5, g5 = (tensor.random_tensor(F5, (3, 3, 3), seed=s) for s in (1, 2))
    f, g = biascx.extremal_pair(F3, 1, 1, 2)
    zero = tensor.zero_tensor(F3, (2, 2, 2))
    reports = {
        "chain_levi_F3": slicerank.verify_rank_chain(tensor.levi_civita(F3)),
        "chain_levi_F2": slicerank.verify_rank_chain(tensor.levi_civita(F2)),
        "chain_zero": slicerank.verify_rank_chain(zero),
        "gr_levi_F3": geometric.geometric_rank(tensor.levi_civita(F3), cross_check=True),
        "gr_zero": geometric.geometric_rank(zero, cross_check=True),
        "closeness_F5": biascx.closeness_report(f5, g5),
        "complexity_F5": biascx.complexity_bound(f5),
        "closeness_extremal": biascx.closeness_report(f, g),
        "complexity_extremal": biascx.complexity_bound(f),
    }
    reports.update({  # decompositions: r = 0, r = 2, r = 4 alone in its group, r = 0
        "decomp_identity_3": decomp.slice_decompose(tensor.identity_tensor(F3, 3), seed=7),
        "decomp_levi_F3": decomp.slice_decompose(tensor.levi_civita(F3), seed=7),
        "decomp_t2_F3": decomp.slice_decompose(tensor.tk_family(F3, 2), seed=7),
        "decomp_random_F3": decomp.slice_decompose(
            tensor.random_tensor(F3, (3, 3, 3), seed=5), seed=7
        ),
    })
    digests = {name: sha(rep.to_dict()) for name, rep in reports.items()}
    system, out = tmp_path / "sys.txt", tmp_path / "sz.json"
    system.write_text("x1*x2 - 1\n")
    assert cli.run(["szcheck", "--system", str(system), "--field", "3^1", "--nvars", "2",
                    "--kmax", "3", "--out", str(out)]) == 0
    digests["szcheck"] = sha(json.loads(out.read_text()))
    assert digests == {
        "chain_levi_F3": "8052679f78d1d49e",
        "chain_levi_F2": "efad67f009153cba",
        "chain_zero": "9a9fe0edd98bf55a",
        "gr_levi_F3": "383a62adbf33f780",
        "gr_zero": "07c81462bdfddfc1",
        "closeness_F5": "87ec60bef2baa1ce",
        "complexity_F5": "7cb18bc73e8a38ca",
        "closeness_extremal": "e7178d6fe0b84d03",
        "complexity_extremal": "d9ee0d57e3607c04",
        "decomp_identity_3": "69efc6764f6b04c3",
        "decomp_levi_F3": "8d472e7b9c4cb32d",
        "decomp_t2_F3": "fb98fcd8f8ca6582",
        "decomp_random_F3": "1956012039bc3e6c",
        "szcheck": "d73296c9325adc44",  # with "schema": 2 (324d1e4e69a21112 at schema 1)
    }
