"""Command-line interface: exit codes, file formats, reproducibility."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from npshare.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MIXED,
    EXIT_OK,
    EXIT_REJECTED,
    main,
)


@pytest.fixture
def workdir(tmp_path):
    config = {
        "structure": {"kind": "threshold", "n": 3, "payload": 2},
        "k": 8,
        "backend": "idealized",
        "master_seed": 11,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    (tmp_path / "secret.bin").write_bytes(b"four")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_deal_writes_files(workdir, capsys):
    out = workdir / "deal"
    code = run("deal", "--config", workdir / "cfg.json",
               "--secret", workdir / "secret.bin", "--out", out)
    assert code == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["dealing.json", "share_1.json", "share_2.json", "share_3.json"]
    dealing = json.loads((out / "dealing.json").read_text())
    assert dealing["format"] == "npshare.dealing/1"


def test_deal_recon_round_trip(workdir, capsys):
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    dest = workdir / "recovered.bin"
    code = run("recon", "--parties", "1,3", "--out", dest,
               out / "share_1.json", out / "share_3.json")
    assert code == EXIT_OK
    assert dest.read_bytes() == b"four"


def test_recon_unqualified_exit_4(workdir):
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    code = run("recon", "--parties", "2", out / "share_2.json")
    assert code == EXIT_REJECTED


def test_recon_missing_share_file_exit_3(workdir):
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    # share for party 2 exists but party 1's file is not provided while 1 in X
    code = run("recon", "--parties", "1,2", out / "share_2.json")
    assert code == EXIT_IO


def test_recon_mixed_dealings_exit_5(workdir):
    out1, out2 = workdir / "d1", workdir / "d2"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out1)
    run("--seed", "999", "deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out2)
    code = run("recon", "--parties", "1,2",
               out1 / "share_1.json", out2 / "share_2.json")
    assert code == EXIT_MIXED


def test_deal_deterministic_under_seed(workdir):
    out1, out2 = workdir / "a", workdir / "b"
    run("--seed", "5", "deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out1)
    run("--seed", "5", "deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out2)
    for name in ("dealing.json", "share_1.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bad_structure_config_exit_2(workdir):
    (workdir / "bad.json").write_text(json.dumps({
        "structure": {"kind": "nonagon", "n": 3, "payload": 2},
    }))
    code = run("deal", "--config", workdir / "bad.json",
               "--secret", workdir / "secret.bin", "--out", workdir / "x")
    assert code == EXIT_CONFIG


def test_unknown_config_key_exit_2(workdir):
    (workdir / "extra.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2},
        "surprise": True,
    }))
    code = run("deal", "--config", workdir / "extra.json",
               "--secret", workdir / "secret.bin", "--out", workdir / "x")
    assert code == EXIT_CONFIG


def test_missing_secret_file_exit_3(workdir):
    code = run("deal", "--config", workdir / "cfg.json",
               "--secret", workdir / "nope.bin", "--out", workdir / "x")
    assert code == EXIT_IO


def test_structure_check(workdir, capsys):
    (workdir / "ham.json").write_text(json.dumps(
        {"kind": "hamiltonian", "n": 6, "payload": 4}))
    code = run("structure", "check", "--structure", workdir / "ham.json")
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["monotone"] is True


def test_experiment_ind_report_bundled_config(workdir):
    bundled = pathlib.Path(__file__).parent.parent / "demos" / "configs" / "ind_demo.json"
    out = workdir / "report.json"
    code = run("experiment", "ind", "--config", bundled, "--out", out)
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["game"] == "ind"
    assert report["advantage"] >= 0.2


def test_recon_with_witness_file(workdir):
    (workdir / "ham_cfg.json").write_text(json.dumps({
        "structure": {"kind": "hamiltonian", "n": 6, "payload": 4},
        "master_seed": 12,
    }))
    out = workdir / "hamdeal"
    run("deal", "--config", workdir / "ham_cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    (workdir / "wit.json").write_text(json.dumps({"inner": [1, 2, 3, 4]}))
    # cycle (1,2,3,4) uses edge slots 1,4,6,3
    dest = workdir / "out.bin"
    code = run("recon", "--parties", "1,3,4,6", "--witness", workdir / "wit.json",
               "--out", dest,
               *(out / f"share_{i}.json" for i in (1, 3, 4, 6)))
    assert code == EXIT_OK
    assert dest.read_bytes() == b"four"


def test_experiment_zero_trials_exit_2(workdir):
    (workdir / "z.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2}, "trials": 0,
    }))
    assert run("experiment", "ind", "--config", workdir / "z.json") == EXIT_CONFIG


def test_experiment_seeded_reports_identical(workdir, capsys):
    (workdir / "exp.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 6, "payload": 2},
        "backend": "leaky", "trials": 150, "master_seed": 3,
        "distinguisher": "leak-reader", "game": "ind",
    }))
    a, b = workdir / "a.json", workdir / "b.json"
    run("experiment", "ind", "--config", workdir / "exp.json", "--out", a)
    run("experiment", "ind", "--config", workdir / "exp.json", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_experiment_hybrid_game(workdir):
    (workdir / "hyb.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 6, "payload": 2},
        "game": "hybrid", "n": 8, "planted_position": 3, "planted_gap": 0.8,
        "trials": 150, "master_seed": 4, "epsilon": 0.1,
    }))
    out = workdir / "hyb_report.json"
    assert run("experiment", "--config", workdir / "hyb.json", "--out", out) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["index"] == 6


def _drop_header(share):
    del share["header"]
    return share


def _drop_msg_len(share):
    del share["ciphertext"]["msg_len"]
    return share


def _party_out_of_range(share):
    share["party"] = 9
    return share


def _garbage_payload(share):
    share["ciphertext"]["payload"] = b"not json".hex()
    return share


def _relation_without_instance(share):
    payload = {"v": 1, "relation": {"type": "mprime", "instance": {}}}
    share["ciphertext"]["payload"] = json.dumps(payload).encode().hex()
    return share


@pytest.mark.parametrize("mutate", [
    _drop_header, _drop_msg_len, _party_out_of_range, lambda share: [share],
    _garbage_payload, _relation_without_instance,
], ids=["no-header", "no-msg-len", "party-9-of-3", "json-array", "garbage-payload",
        "relation-without-instance"])
def test_recon_malformed_share_exit_2(workdir, capsys, mutate):
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    bad = workdir / "bad_share.json"
    bad.write_text(json.dumps(mutate(json.loads((out / "share_1.json").read_text()))))
    code = run("recon", "--parties", "1", bad)
    assert code == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_experiment_dprime_golden_report(workdir):
    # golden values of the CLI's seed lanes: swapping the two D' lanes or
    # reordering the lanes changes them, while the cross-process test below
    # compares two runs of the same code and cannot tell
    (workdir / "dp.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 4, "payload": 2},
        "backend": "leaky", "game": "dprime", "runs": 5, "epsilon": 0.5,
    }))
    out = workdir / "dp_report.json"
    code = run("--seed", 7, "experiment", "--config", workdir / "dp.json", "--out", out)
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert (report["accept_a0"], report["accept_a1"]) == (1.0, 0.2)


def test_experiment_report_identical_across_processes(tmp_path):
    (tmp_path / "exp.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2},
        "backend": "leaky", "game": "dprime", "runs": 3, "epsilon": 0.5,
    }))
    src = str(pathlib.Path(__file__).parent.parent / "src")
    reports = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "npshare.cli", "--seed", "7", "experiment",
             "--config", str(tmp_path / "exp.json")],
            capture_output=True, env=env, timeout=300, check=True,
        )
        reports.append(proc.stdout)
    assert json.loads(reports[0])["game"] == "dprime"
    assert reports[0] == reports[1]
