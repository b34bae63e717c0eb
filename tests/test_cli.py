"""Command-line interface: exit codes, file formats, reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from npshare import cli, harness
from npshare.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MIXED,
    EXIT_OK,
    EXIT_REJECTED,
    ConfigError,
    main,
)
from npshare.rng import Stream
from npshare.scheme import MissingShareError, MixedDealingError, setup
from npshare.structures import AccessStructure
from npshare.we import BACKENDS, CorruptCiphertext, WeError


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


@pytest.mark.parametrize("trials", [0, -5])
def test_structure_check_sampled_refuses_no_trials(workdir, capsys, trials):
    (workdir / "t.json").write_text(json.dumps({"kind": "threshold", "n": 3, "payload": 2}))
    assert run("structure", "check", "--structure", workdir / "t.json", "--mode", "sampled",
               "--trials", trials) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: sampled monotonicity check needs trials >= 1, got {trials}\n")


@pytest.mark.parametrize("structure", [
    {"kind": "threshold", "n": 3, "payload": 0},
    {"kind": "threshold", "n": 3, "payload": 4},
    {"kind": "threshold", "n": 3, "payload": 2.7},
    {"kind": "threshold", "n": 3, "payload": True},
    {"kind": "threshold", "n": "3", "payload": 2},
    {"kind": "threshold", "n": 3},
    {"kind": 5, "n": 3, "payload": 2},
    {"kind": "tree", "n": 3, "payload": 2},
    {"kind": "hamiltonian", "n": 1, "payload": 2},
    {"kind": "matching", "n": 5, "payload": 4},
    {"kind": "monotone-circuit", "n": 2, "payload": 2},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["nand", 0, 1]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["and", 0]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2, "payload": {"free": 0, "gates": [[]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2, "payload": {"free": 0, "gates": [5], "output": 2}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["and", 0, 2]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["and", 0, 1]], "output": 3}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["and", 0, True]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["or", 0, 1.0]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": 0, "gates": [["and", 0, 1]], "output": True}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": -1, "gates": [["and", 0, 1]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2,
     "payload": {"free": "1", "gates": [["and", 0, 1]], "output": 2}},
    {"kind": "monotone-circuit", "n": 2, "payload": {"free": 0, "gates": {}, "output": 2}},
], ids=["threshold-0", "threshold-n+1", "payload-2.7", "payload-true", "n-string",
        "no-payload", "kind-number", "kind-unknown", "v-2", "n-not-v-choose-2",
        "circuit-payload-int", "bad-op", "bad-arity", "empty-gate", "gate-number",
        "forward-wire", "output-out-of-range", "wire-true", "wire-float", "output-true",
        "free-negative", "free-string", "gates-object"])
def test_structure_check_rejects_malformed_description(workdir, capsys, structure):
    (workdir / "s.json").write_text(json.dumps(structure))
    assert run("structure", "check", "--structure", workdir / "s.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: bad structure description: [^\n]+\n", captured.err), captured.err


def test_experiment_ind_report_bundled_config(workdir):
    bundled = pathlib.Path(__file__).parent.parent / "demos" / "configs" / "ind_demo.json"
    out = workdir / "report.json"
    code = run("experiment", "ind", "--config", bundled, "--out", out)
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["game"] == "ind"
    assert report["advantage"] >= 0.2


ROOT = pathlib.Path(__file__).resolve().parent.parent
README_EXPERIMENTS = [line.split()[1:] for line in (ROOT / "README.md").read_text().splitlines()
                      if line.startswith("npshare experiment ")]
REPORT_KEYS = {
    "ind": {"game", "trials", "count0", "count1", "advantage", "radius", "delta", "master_seed"},
    "dprime": {"game", "runs", "epsilon", "master_seed", "accept_a0", "accept_a1", "gap"},
}


def test_readme_names_experiment_commands():
    assert len(README_EXPERIMENTS) >= 2


@pytest.mark.parametrize("argv", README_EXPERIMENTS, ids=" ".join)
def test_readme_experiment_command_exits_0_with_its_report(tmp_path, argv):
    """Each ``npshare experiment`` line of README's command block runs as
    written (config paths relative to the repository root)."""
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["game"] == argv[1] and REPORT_KEYS[argv[1]] <= report.keys()


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


@pytest.mark.parametrize("witness", [
    '{"openings": [], "inner": 5}', '{"inner": 5}', '{"openings": 5}', '{"openings": [5]}',
    '{"openings": null}', '{"openings": ["zz", null, null]}', "[1, 2]", '"x"', "null",
    '{"inner": null, "bogus": 1}', '{"openings": [null]}', '{"openings": [null, null, null, null]}',
])
def test_recon_malformed_witness_exit_2(workdir, capsys, witness):
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    capsys.readouterr()
    (workdir / "wit.json").write_text(witness)
    code = run("recon", "--parties", "1,2", "--witness", workdir / "wit.json",
               "--out", workdir / "secret.out", out / "share_1.json", out / "share_2.json")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (workdir / "secret.out").exists()


CIRCUIT5 = {"kind": "monotone-circuit", "n": 5, "payload": {
    "free": 1, "output": 12, "gates": [["not", 5], ["and", 0, 1], ["and", 7, 5], ["and", 2, 3],
                                       ["and", 9, 4], ["and", 10, 6], ["or", 8, 11]]}}
HAMILTONIAN4 = {"kind": "hamiltonian", "n": 6, "payload": 4}
HAMILTONIAN7 = {"kind": "hamiltonian", "n": 21, "payload": 7}
MATCHING4 = {"kind": "matching", "n": 6, "payload": 4}


# malformed inner witnesses that int() or bool() coercion once let through
# on one backend or both; the parties are those the coerced witness names
@pytest.mark.parametrize("backend", ["idealized", "cnf"])
@pytest.mark.parametrize("structure, parties, inner", [
    (CIRCUIT5, "1,2", [2]),
    (HAMILTONIAN4, "1,3,4,6", [1.5, 2, 3, 4]),
    (HAMILTONIAN4, "1,3,4,6", "1234"),
    (HAMILTONIAN4, "1,3,4,6", [True, 2, 3, 4]),
    (MATCHING4, "1,6", [[1.9, 2], [3, 4]]),
    (MATCHING4, "1,6", ["12", "34"]),
], ids=["circuit5-2", "ham-float", "ham-string", "ham-true", "matching-float",
        "matching-strings"])
def test_recon_malformed_inner_witness_exit_4(workdir, backend, structure, parties, inner):
    (workdir / "cfg.json").write_text(json.dumps({"structure": structure, "backend": backend}))
    out = workdir / "deal"
    assert run("deal", "--config", workdir / "cfg.json",
               "--secret", workdir / "secret.bin", "--out", out) == EXIT_OK
    (workdir / "wit.json").write_text(json.dumps({"inner": inner}))
    code = run("recon", "--parties", parties, "--witness", workdir / "wit.json",
               "--out", workdir / "secret.out",
               *(out / f"share_{i}.json" for i in parties.split(",")))
    assert code == EXIT_REJECTED
    assert not (workdir / "secret.out").exists()


def _cnf_config(structure, **extra):
    return {"structure": structure, "backend": "cnf", **extra}


THRESHOLD_3_2 = {"kind": "threshold", "n": 3, "payload": 2}
BOUNDS = "compile bounds exceeded (k <= 8, n <= 12)"


@pytest.mark.parametrize("config, message", [
    (_cnf_config(THRESHOLD_3_2, expansion="splitmix64"),
     "only the 'toy' expansion is compilable; build the CRS with it"),
    (_cnf_config(THRESHOLD_3_2, k=9), BOUNDS),
    (_cnf_config({"kind": "threshold", "n": 13, "payload": 2}), BOUNDS),
    (_cnf_config({"kind": "hamiltonian", "n": 15, "payload": 6}), BOUNDS),
    (_cnf_config({"kind": "monotone-circuit", "n": 2,
                  "payload": {"free": 17, "gates": [["or", 0, 1]], "output": 19}}),
     "compile bounds exceeded (free inputs <= 16)"),
], ids=["splitmix64", "k-9", "n-13", "hamiltonian-6-n-15", "free-17"])
def test_cnf_deal_out_of_compile_bounds_exit_2(workdir, capsys, config, message):
    # the bounds are checked when the dealing is made, although the
    # circuit is compiled only on the first check
    with pytest.raises(ValueError) as exc:
        setup(AccessStructure.from_json(config["structure"]), b"four", Stream(1),
              backend="cnf", k=config.get("k", 8), expansion=config.get("expansion"))
    assert str(exc.value) == message
    (workdir / "oob.json").write_text(json.dumps(config))
    code = run("deal", "--config", workdir / "oob.json",
               "--secret", workdir / "secret.bin", "--out", workdir / "deal")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "deal").exists()


def test_cnf_deal_compiles_nothing(workdir, monkeypatch):
    from npshare import circuits, cnf

    compiles, tseitins = [], []
    real_compile, real_tseitin = circuits.compile_mprime, cnf.tseitin
    monkeypatch.setattr(circuits, "compile_mprime",
                        lambda inst: compiles.append(inst) or real_compile(inst))
    monkeypatch.setattr(cnf, "tseitin", lambda c: tseitins.append(c) or real_tseitin(c))
    (workdir / "cnf.json").write_text(json.dumps(_cnf_config(THRESHOLD_3_2)))
    out = workdir / "deal"
    assert run("deal", "--config", workdir / "cnf.json",
               "--secret", workdir / "secret.bin", "--out", out) == EXIT_OK
    assert (len(compiles), len(tseitins)) == (0, 0)
    assert run("recon", "--parties", "1,3", "--out", workdir / "secret.out",
               out / "share_1.json", out / "share_3.json") == EXIT_OK
    assert (len(compiles), len(tseitins)) == (1, 1)
    assert (workdir / "secret.out").read_bytes() == b"four"


def test_recon_cnf_relation_over_uncompilable_instance_exit_2(workdir, capsys):
    # an idealized dealing relabelled as cnf: its splitmix64 instance
    # cannot be compiled, so the embedded relation does not load
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    paths = []
    for i in (1, 2):
        share = _decode_payload(json.loads((out / f"share_{i}.json").read_text()))
        share["ciphertext"]["backend"] = "cnf"
        share["ciphertext"]["payload"]["relation"]["type"] = "mprime-cnf"
        paths.append(workdir / f"cnf_{i}.json")
        paths[-1].write_text(json.dumps(_encode_payload(share)))
    capsys.readouterr()
    code = run("recon", "--parties", "1,2", "--out", workdir / "secret.out", *paths)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and "'toy' expansion" in err
    assert not (workdir / "secret.out").exists()


# SHA-256 over the names and bytes of the files `npshare --seed 7 deal`
# writes for a threshold(4,2) dealing of b"golden"; a change to any dealt
# byte changes these on purpose or not at all
GOLDEN_DEALINGS = {
    "idealized": "1d4a66f6f34a2d67377528c829c013085449fc036b44e5d6123502e560936a4a",
    "leaky": "fb61b207f25e0020ca1106ee48ced81198f03d26375dcc0f84b2016aa4706134",
    "cnf": "3ced68de8cbd038092bd4beca24f8b899f1991594506cd776564797aab5ef62b",
}


@pytest.mark.parametrize("backend", sorted(GOLDEN_DEALINGS))
def test_deal_golden_digest(tmp_path, backend):
    (tmp_path / "cfg.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 4, "payload": 2}, "backend": backend,
    }))
    (tmp_path / "secret.bin").write_bytes(b"golden")
    out = tmp_path / "deal"
    assert run("--seed", 7, "deal", "--config", tmp_path / "cfg.json",
               "--secret", tmp_path / "secret.bin", "--out", out) == EXIT_OK
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\n{len(data)}\n".encode() + data)
    assert h.hexdigest() == GOLDEN_DEALINGS[backend]


def test_experiment_zero_trials_exit_2(workdir):
    (workdir / "z.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2}, "trials": 0,
    }))
    assert run("experiment", "ind", "--config", workdir / "z.json") == EXIT_CONFIG


THRESHOLD3 = {"structure": {"kind": "threshold", "n": 3, "payload": 2}, "backend": "leaky"}
THRESHOLD128 = {"kind": "threshold", "n": 128, "payload": 2}  # one party above cli.MAX_PARTIES


@pytest.mark.parametrize("command,config", [
    ("deal", {}),
    ("deal", 5),
    ("deal", None),
    ("deal", {**THRESHOLD3, "k": [1]}),
    ("experiment", {}),
    ("experiment", {**THRESHOLD3, "k": [1]}),
    ("experiment", {**THRESHOLD3, "delta": None}),
    ("experiment", {**THRESHOLD3, "delta": 0}),
    ("experiment", {**THRESHOLD3, "sampler": 5}),
    ("experiment", {**THRESHOLD3, "sampler": {"kind": "mixed", "p_unqualified": [1]}}),
    ("experiment", {"game": "hybrid", "n": 0}),
    ("experiment", {"game": "hybrid", "n": 4, "planted_position": 9}),
    ("deal", {**THRESHOLD3, "k": 65}),
    ("deal", {**THRESHOLD3, "k": 10**6}),
    ("experiment", {**THRESHOLD3, "k": 65}),
    ("experiment", {**THRESHOLD3, "k": 10**6}),
    ("experiment", {**THRESHOLD3, "secret_bits": 8}),
    ("deal", {**THRESHOLD3, "lam": 7}),
    ("deal", {**THRESHOLD3, "lam": 257}),
    ("experiment", {**THRESHOLD3, "lam": 257}),
    ("experiment", {**THRESHOLD3, "secret_len": 0}),
    ("experiment", {**THRESHOLD3, "secret_len": 65}),
    ("experiment", {"game": "hybrid", "n": 65}),
    ("experiment", {**THRESHOLD3, "epsilon": 0.09}),
    ("experiment", {**THRESHOLD3, "epsilon": 0}),
    ("experiment", {**THRESHOLD3, "epsilon": 1.5}),
    ("deal", {**THRESHOLD3, "structure": THRESHOLD128}),
    ("experiment", {**THRESHOLD3, "structure": THRESHOLD128}),
    # the sampler's settings live in "sampler" alone, and its keys are checked
    ("experiment", {**THRESHOLD3, "sampler": {"kind": "mixed", "p_unqualified": 0.3,
                                              "bogus": 1}}),
    ("experiment", {**THRESHOLD3, "p_unqualified": 0.9,
                    "sampler": {"kind": "mixed", "p_unqualified": 0.1}}),
    # every key present is checked, whatever the game
    ("experiment", {**THRESHOLD3, "game": "ind", "runs": 0, "n": -5, "planted_gap": 7}),
    ("experiment", {**THRESHOLD3, "game": "sem", "n": 65}),
    ("experiment", {**THRESHOLD3, "game": "equiv", "planted_position": 9}),
    ("experiment", {**THRESHOLD3, "game": "dprime", "runs": 1, "planted_gap": -0.1}),
    ("experiment", {"game": "hybrid", "runs": 0}),
    ("experiment", {"game": "hybrid", "planted_gap": 1.5}),
], ids=["deal-no-structure", "deal-number", "deal-null", "deal-k-list", "experiment-empty",
        "k-list", "delta-null", "delta-0", "sampler-number", "p_unqualified-list",
        "hybrid-n-0", "hybrid-position-9", "deal-k-65", "deal-k-1e6", "k-65", "k-1e6",
        "secret_bits", "deal-lam-7", "deal-lam-257", "lam-257", "secret_len-0",
        "secret_len-65", "hybrid-n-65", "epsilon-0.09", "epsilon-0", "epsilon-1.5",
        "deal-n-128", "n-128", "sampler-unknown-key", "top-level-p_unqualified",
        "ind-runs-n-gap", "sem-n-65", "equiv-position-9", "dprime-gap-negative",
        "hybrid-runs-0", "hybrid-gap-1.5"])
def test_malformed_config_exit_2_with_one_line(workdir, capsys, command, config):
    (workdir / "bad.json").write_text(json.dumps(config))
    argv = ("--secret", workdir / "secret.bin", "--out", workdir / "x") if command == "deal" else ()
    assert run(command, "--config", workdir / "bad.json", *argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]+\n", captured.err), captured.err
    assert not (workdir / "x").exists()


def test_default_planted_position_binds_hybrid_alone(workdir, capsys):
    # the default planted_position (3) is hybrid's: another game with n = 2 runs
    (workdir / "ind.json").write_text(json.dumps({**THRESHOLD3, "n": 2, "trials": 100}))
    assert run("experiment", "ind", "--config", workdir / "ind.json") == EXIT_OK
    capsys.readouterr()
    (workdir / "hyb.json").write_text(json.dumps({**THRESHOLD3, "game": "hybrid", "n": 2}))
    assert run("experiment", "--config", workdir / "hyb.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: planted_position must be an integer in 1..2, "
                            "got the default 3\n")


@pytest.mark.parametrize("command,config", [
    ("deal", {**THRESHOLD3, "lam": 8}),
    ("deal", {**THRESHOLD3, "lam": 256}),
    ("experiment", {**THRESHOLD3, "trials": 100, "secret_len": 64}),
    ("experiment", {**THRESHOLD3, "game": "hybrid", "trials": 100, "n": 64}),
    ("experiment", {**THRESHOLD3, "game": "dprime", "runs": 1, "epsilon": 0.1}),
    ("experiment", {**THRESHOLD3, "game": "dprime", "runs": 1, "epsilon": 1}),
    # 0.2 s and 1.8 MB for the deal, 0.4 s for the experiment (2-core box)
    ("deal", {**THRESHOLD3, "structure": {**THRESHOLD128, "n": 127}}),
    ("experiment", {**THRESHOLD3, "structure": {**THRESHOLD128, "n": 127}, "trials": 100}),
], ids=["deal-lam-8", "deal-lam-256", "secret_len-64", "hybrid-n-64", "epsilon-0.1",
        "epsilon-1", "deal-n-127", "n-127"])
def test_size_keys_at_their_bounds_exit_0(workdir, command, config):
    (workdir / "edge.json").write_text(json.dumps(config))
    argv = ("--secret", workdir / "secret.bin") if command == "deal" else ()
    assert run(command, "--config", workdir / "edge.json", *argv,
               "--out", workdir / "x") == EXIT_OK


def test_structure_check_is_not_bounded_by_the_config_party_limit(workdir, capsys):
    (workdir / "big.json").write_text(json.dumps(THRESHOLD128))
    assert run("structure", "check", "--structure", workdir / "big.json", "--mode", "sampled",
               "--trials", 10) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n"] == 128


HUGE_CIRCUIT = {"kind": "monotone-circuit", "n": 10**20,
                "payload": {"free": 0, "gates": [], "output": 0}}
FREE_20_CIRCUIT = {"kind": "monotone-circuit", "n": 12, "payload": {  # ANDs 20 free inputs, party 1
    "free": 20, "gates": [["and", 12, 13]] + [["and", 31 + j, 13 + j] for j in range(1, 19)]
    + [["and", 50, 0]], "output": 51}}


def free_only_circuit(free):
    """Two parties, ``free`` inputs that no gate reads; the output is party 1."""
    return {"kind": "monotone-circuit", "n": 2,
            "payload": {"free": free, "gates": [], "output": 0}}


MATCHING17 = {"kind": "matching", "n": 136, "payload": 17}  # odd v: no perfect matching to try
BUDGET_EXCEEDED = ("inner-witness budget of 1000000 exceeded: "
                   "{} evaluation(s) of this monotone-circuit structure may try more")


@pytest.mark.parametrize("argv, structure, error", [
    (("deal", "--config"), {"structure": HUGE_CIRCUIT},
     f"structure n must be at most {cli.MAX_PARTIES}, got {10**20}"),
    (("structure", "check", "--structure"), HUGE_CIRCUIT,
     "exhaustive monotonicity check limited to n <= 12"),
    (("structure", "check", "--structure"), MATCHING17,
     "exhaustive monotonicity check limited to n <= 12"),
    (("structure", "check", "--mode", "sampled", "--trials", 1, "--structure"),
     {"kind": "threshold", "n": 10**8, "payload": 2},
     f"sampled monotonicity check limited to n * trials <= 1000000, got {10**8}"),
    (("structure", "check", "--structure"), FREE_20_CIRCUIT, BUDGET_EXCEEDED.format(4096)),
    # refused once the product passes the budget, before 2^free is built
    (("structure", "check", "--structure"), free_only_circuit(10**20), BUDGET_EXCEEDED.format(4)),
    (("deal", "--config"), {"structure": free_only_circuit(10**9), "backend": "leaky"},
     BUDGET_EXCEEDED.format(1)),
    (("deal", "--config"), {"structure": free_only_circuit(10**20), "backend": "leaky"},
     BUDGET_EXCEEDED.format(1)),
], ids=["deal-n-1e20", "check-n-1e20", "check-matching-17", "sampled-threshold-n-1e8",
        "check-free-20", "check-free-1e20", "leaky-deal-free-1e9", "leaky-deal-free-1e20"])
def test_huge_structures_exit_2_with_one_line(workdir, capsys, argv, structure, error):
    """Refused by a size bound before anything is allocated per party."""
    (workdir / "huge.json").write_text(json.dumps(structure))
    extra = ("--secret", workdir / "secret.bin", "--out", workdir / "x") if "deal" in argv else ()
    assert run(*argv, workdir / "huge.json", *extra) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("argv, structure, fits", [
    (("deal", "--config"), {"structure": free_only_circuit(19), "backend": "leaky"}, True),
    (("deal", "--config"), {"structure": free_only_circuit(20), "backend": "leaky"}, False),
    (("structure", "check", "--mode", "sampled", "--trials", 694, "--structure"),
     HAMILTONIAN7, True),  # 2 * 694 * 6! = 999,360 witnesses
    (("structure", "check", "--mode", "sampled", "--trials", 695, "--structure"),
     HAMILTONIAN7, False),
    (("structure", "check", "--mode", "sampled", "--trials", 5, "--structure"),
     MATCHING17, True),
], ids=["leaky-deal-free-19", "leaky-deal-free-20", "check-hamiltonian-7-694-trials",
        "check-hamiltonian-7-695-trials", "check-matching-17-5-trials"])
def test_both_sides_of_the_witness_budget(workdir, capsys, argv, structure, fits):
    """A leaky deal and a sampled check run up to 10^6 inner witnesses and
    refuse one evaluation's worth more with exit 2 and one line; an odd-v
    matching has no witness to count."""
    (workdir / "s.json").write_text(json.dumps(structure))
    extra = ("--secret", workdir / "secret.bin", "--out", workdir / "x") if "deal" in argv else ()
    assert run(*argv, workdir / "s.json", *extra) == (EXIT_OK if fits else EXIT_CONFIG)
    err = capsys.readouterr().err
    if fits:
        assert err == ""
    else:
        assert err.startswith("error: inner-witness budget of 1000000 exceeded")
        assert err.count("\n") == 1


@pytest.mark.parametrize("runs", [0, -2, True])
def test_experiment_dprime_bad_runs_exit_2(workdir, capsys, runs):
    (workdir / "r.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2},
        "backend": "leaky", "game": "dprime", "runs": runs,
    }))
    assert run("experiment", "--config", workdir / "r.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "runs must be a positive integer" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


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


def _drop_crs(share):
    del share["crs"]
    return share


def _as_share_1(share):
    # the share/1 layout: the CRS inside a header with n and a structure digest
    crs = share.pop("crs")
    return {**share, "format": "npshare.share/1",
            "header": {"n": crs["n"], "structure_digest": "00" * 32, "crs": crs}}


def _drop_msg_len(share):
    del share["ciphertext"]["msg_len"]
    return share


def _party_out_of_range(share):
    share["party"] = 9
    return share


def _party_above_crs_n(share):
    share["party"] = share["crs"]["n"] + 1
    return share


def _garbage_payload(share):
    share["ciphertext"]["payload"] = b"not json".hex()
    return share


def _relation_without_instance(share):
    payload = {"v": 1, "relation": {"type": "mprime", "instance": {}}}
    share["ciphertext"]["payload"] = json.dumps(payload).encode().hex()
    return share


@pytest.mark.parametrize("mutate", [
    _drop_crs, _as_share_1, _drop_msg_len, _party_out_of_range, _party_above_crs_n,
    lambda share: [share], _garbage_payload, _relation_without_instance, lambda share: b"",
    lambda share: b"{not json",
], ids=["no-crs", "share-1", "no-msg-len", "party-9-of-3", "party-4-of-3", "json-array",
        "garbage-payload", "relation-without-instance", "empty-file", "not-json"])
def test_recon_malformed_share_exit_2(workdir, capsys, mutate):
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    capsys.readouterr()
    bad = workdir / "bad_share.json"
    data = mutate(json.loads((out / "share_1.json").read_text()))
    bad.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    code = run("recon", "--parties", "1", bad)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _flip_crs_byte(share):
    bits = share["crs"]["bits"]
    share["crs"]["bits"] = f"{int(bits[:2], 16) ^ 1:02x}" + bits[2:]
    return share


@pytest.mark.parametrize("mutate", [_flip_crs_byte], ids=["crs-byte-flipped"])
def test_recon_header_disagreeing_with_ciphertext_exit_2(workdir, capsys, mutate):
    # the same change in both files gets past the mixed-dealing check
    out = workdir / "deal"
    run("deal", "--config", workdir / "cfg.json",
        "--secret", workdir / "secret.bin", "--out", out)
    paths = []
    for i in (1, 2):
        paths.append(workdir / f"bad_{i}.json")
        paths[-1].write_text(json.dumps(mutate(json.loads((out / f"share_{i}.json").read_text()))))
    code = run("recon", "--parties", "1,2", "--out", workdir / "secret.out", *paths)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and "crs disagrees" in err
    assert len(err.strip().splitlines()) == 1 and not (workdir / "secret.out").exists()


@pytest.fixture(scope="module", params=["idealized", "leaky", "cnf"])
def dealt(request, tmp_path_factory):
    """share_1 and share_2 of a threshold(3,2) dealing, as JSON objects."""
    root = tmp_path_factory.mktemp(request.param)
    (root / "cfg.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2},
        "backend": request.param, "master_seed": 5,
    }))
    (root / "secret.bin").write_bytes(b"four")
    assert run("deal", "--config", root / "cfg.json", "--secret", root / "secret.bin",
               "--out", root / "deal") == EXIT_OK
    return root, [json.loads((root / "deal" / f"share_{i}.json").read_text()) for i in (1, 2)]


def _decode_payload(share):
    """The share with its hex payload decoded, so mutations reach inside it."""
    share = json.loads(json.dumps(share))
    share["ciphertext"]["payload"] = json.loads(bytes.fromhex(share["ciphertext"]["payload"]))
    return share


def _hex_text(value):
    """A hex field as it is, or a decoded payload encoded back to hex."""
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode().hex()


def _encode_payload(doc):
    ct = doc.get("ciphertext") if isinstance(doc, dict) else None
    if isinstance(ct, dict) and isinstance(ct.get("payload"), dict):
        ct["payload"] = _hex_text(ct["payload"])
    return doc


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for idx, child in enumerate(value):
            yield from _nodes(child, path + (idx,))


def _json_type(value):
    return type(value) if value is not None else None


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=False),
    st.text(max_size=8), st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
)
HEX = re.compile(r"(?:[0-9a-f]{2})+")


DROP = object()


@st.composite
def share_mutation(draw, share):
    """(path, change) for one malformed share file: a key dropped, a value
    of the wrong type, truncated or garbage hex, a party out of range, a
    scalar or array in place of an object, or an extra key in any object,
    inside the payload or out.  ``change(old)`` is the new value or DROP."""
    nodes = list(_nodes(_decode_payload(share)))
    kind = draw(st.sampled_from(["drop", "retype", "hex", "party", "not-an-object", "extra-key"]))
    if kind == "party":
        party = draw(st.one_of(st.integers(max_value=0), st.integers(min_value=4)))
        return ("party",), lambda old: party
    if kind == "drop":
        choices = [p for p, _ in nodes if p]
    elif kind == "retype":
        choices = [p for p, _ in nodes]
    elif kind == "hex":
        choices = [p for p, v in nodes if p == ("ciphertext", "payload") or (
            isinstance(v, str) and HEX.fullmatch(v))]
    else:  # not-an-object, extra-key
        choices = [p for p, v in nodes if isinstance(v, dict)]
    path = draw(st.sampled_from(choices))
    old = dict(nodes)[path]
    if kind == "extra-key":
        key, value = draw(st.text(max_size=6).filter(lambda key: key not in old)), draw(JSON_VALUES)
        return path, lambda old: {**old, key: value}
    if kind == "drop":
        return path, lambda old: DROP
    if kind == "hex":
        if draw(st.booleans()):
            cut = draw(st.floats(0, 1, exclude_max=True))
            return path, lambda old: _hex_text(old)[:int(cut * len(_hex_text(old)))]
        garbage = draw(st.text(alphabet="0123456789abcdefxyz", max_size=24).filter(
            lambda g: len(g) % 2 or not HEX.fullmatch(g)))
        return path, lambda old: garbage
    if kind == "retype":
        new = draw(JSON_VALUES.filter(lambda v: _json_type(v) is not _json_type(old)))
    else:
        new = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    return path, lambda old: new


def _apply(share, mutation):
    path, change = mutation
    doc = _decode_payload(share)
    if not path:
        return change(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    new = change(parent[path[-1]])
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return _encode_payload(doc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recon_fuzzed_share_files_exit_cleanly(dealt, data):
    root, shares = dealt
    assert _encode_payload(_decode_payload(shares[0])) == shares[0]
    mutation = data.draw(share_mutation(shares[0]))
    # the same mutation in both files gets past the mixed-dealing check
    both = data.draw(st.booleans())
    paths = [root / "bad_1.json", root / "bad_2.json"]
    paths[0].write_text(json.dumps(_apply(shares[0], mutation)))
    paths[1].write_text(json.dumps(_apply(shares[1], mutation) if both else shares[1]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("recon", "--parties", "1,2", "--out", root / "secret.out", *paths)
    assert code in {2, 3, 4, 5}, (code, mutation[0], both)
    assert "Traceback" not in err.getvalue()


WITNESS_STRUCTURES = {"hamiltonian4": HAMILTONIAN4, "matching4": MATCHING4, "circuit5": CIRCUIT5}


@pytest.fixture(scope="module")
def witness_dealings(tmp_path_factory):
    """One dealing per (backend, structure): the share files' directory and n."""
    root = tmp_path_factory.mktemp("witness")
    (root / "secret.bin").write_bytes(b"four")
    dealings = {}
    for backend in ("idealized", "cnf", "leaky"):
        for name, structure in WITNESS_STRUCTURES.items():
            out = root / f"{backend}-{name}"
            (root / "cfg.json").write_text(json.dumps({"structure": structure,
                                                       "backend": backend}))
            assert run("deal", "--config", root / "cfg.json", "--secret", root / "secret.bin",
                       "--out", out) == EXIT_OK
            dealings[backend, name] = out, structure["n"]
    return dealings


# JSON values of every kind, nested; small integers reach vertices and bits
WITNESS_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1, 6), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.dictionaries(st.text(max_size=3), children, max_size=2)),
    max_leaves=10,
)
# well-formed inner witnesses too, so the accepting path runs: a cycle of K4,
# a perfect matching of K4 and one free bit, each valid on its own structure
VERTICES = st.permutations([1, 2, 3, 4])
INNER_VALUES = st.one_of(WITNESS_VALUES, VERTICES, VERTICES.map(lambda p: [p[:2], p[2:]]),
                         st.lists(st.integers(0, 1), min_size=1, max_size=1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recon_fuzzed_witness_files_exit_cleanly(witness_dealings, data):
    """README's witness-file rule: any witness file ends in exit 0, 2
    (malformed) or 4 (rejected), never in a traceback."""
    out, n = witness_dealings[data.draw(st.sampled_from(sorted(witness_dealings)))]
    parties = sorted(data.draw(st.one_of(st.just(range(1, n + 1)),
                                         st.sets(st.integers(1, n), min_size=1))))
    # openings of any shape, or one per party, so that each is parsed
    openings = st.one_of(WITNESS_VALUES, st.lists(WITNESS_VALUES, min_size=n, max_size=n),
                         st.just([None] * n))
    witness = {key: data.draw(values) for key, values in (("inner", INNER_VALUES),
                                                          ("openings", openings))
               if data.draw(st.booleans())}
    path = out.parent / "wit.json"
    path.write_text(json.dumps(witness))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("recon", "--parties", ",".join(map(str, parties)), "--witness", path,
                   "--out", out.parent / "secret.out", *(out / f"share_{i}.json" for i in parties))
    assert code in {EXIT_OK, EXIT_CONFIG, EXIT_REJECTED}, (code, witness)
    assert "Traceback" not in err.getvalue()


# The deal configs and structure descriptions the tests above write.  Their
# sizes are small, and a mutated integer is either at most 9 or far past
# every size bound, so every example deals or checks in well under a second.
FUZZ_STRUCTURES = [{"kind": "threshold", "n": 3, "payload": 2}, HAMILTONIAN4, MATCHING4, CIRCUIT5]
FUZZ_DEAL_CONFIGS = [
    {"structure": FUZZ_STRUCTURES[0], "k": 8, "backend": "idealized", "master_seed": 11},
    {"structure": HAMILTONIAN4, "backend": "cnf", "lam": 16},
    {"structure": MATCHING4, "backend": "leaky", "expansion": "toy"},
    {"structure": CIRCUIT5, "backend": "cnf", "k": 8, "master_seed": 5},
    {"structure": CIRCUIT5, "backend": "leaky"},
]


@st.composite
def json_mutation(draw, doc):
    """``doc`` with one node dropped, retyped, set to an integer, or given
    an unknown key; the root itself may be retyped."""
    nodes = dict(_nodes(doc))
    kind = draw(st.sampled_from(["drop", "retype", "int", "unknown-key"]))
    if kind == "drop":
        choices = [p for p in nodes if p]
    elif kind == "unknown-key":
        choices = [p for p, v in nodes.items() if isinstance(v, dict)]
    else:
        choices = list(nodes)
    path = draw(st.sampled_from(choices))
    old = nodes[path]
    if kind == "retype":
        new = draw(JSON_VALUES.filter(lambda v: _json_type(v) is not _json_type(old)))
    elif kind == "int":
        new = draw(st.one_of(st.integers(-2, 9), st.integers(10**7, 10**20)))
    elif kind == "unknown-key":
        new = {**old, draw(st.text(max_size=3).filter(lambda k: k not in old)): draw(JSON_VALUES)}
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "secret.bin").write_bytes(b"four")
    return root


def run_quietly(*argv):
    """Exit code and stderr of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_deal_fuzzed_configs_exit_cleanly(fuzz_dir, data):
    config = data.draw(json_mutation(data.draw(st.sampled_from(FUZZ_DEAL_CONFIGS))))
    (fuzz_dir / "cfg.json").write_text(json.dumps(config))
    code, err = run_quietly("deal", "--config", fuzz_dir / "cfg.json",
                            "--secret", fuzz_dir / "secret.bin", "--out", fuzz_dir / "deal")
    assert code in range(6), (code, config)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_structure_check_fuzzed_descriptions_exit_cleanly(fuzz_dir, data):
    structure = data.draw(json_mutation(data.draw(st.sampled_from(FUZZ_STRUCTURES))))
    mode = data.draw(st.sampled_from(["exhaustive", "sampled"]))
    trials = data.draw(st.integers(-1, 200))
    (fuzz_dir / "s.json").write_text(json.dumps(structure))
    code, err = run_quietly("structure", "check", "--structure", fuzz_dir / "s.json",
                            "--mode", mode, "--trials", trials)
    assert code in range(6), (code, structure, mode, trials)
    assert "Traceback" not in err

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
    assert (report["accept_a0"], report["accept_a1"]) == (1.0, 0.8)


GAME_CONFIG = {"structure": {"kind": "threshold", "n": 3, "payload": 2}, "backend": "leaky",
               "trials": 100}
GOLDEN_REPORTS = {
    ("sem", "leak-reader"): "844f8179c6182cd924fb53e9dc015f9ec526a5ca315f31320921cbeb877acaca",
    ("equiv", "leak-reader"): "d82ddcdd6c4d83184b3179c14f57f7ee6528e018460df7e3904e098bad6bd4dc",
    ("ind", "constant-0"): "5e61884abfa5ea67073b443b630b040eca943f49230ad667110b7d4f2cd41989",
    ("ind", "shape-reader"): "de15130162dbf825df7f0e931ff5dff3c4933c1c90a1c83301665c270151ebcd",
    ("ind", "leak-reader"): "dae93d5da58a2aab42d55151c6d18d2c0188dcb15a77ceb8a2ae48a2082c723b",
    ("dprime", "leak-reader"): "0382f5d70d7c66ad239afc5755568af6d86d240e9c50c0b6edf62616c1a98091",
    ("hybrid", "leak-reader"): "99666a77d9487837e09fb5313cab3a0fa3c56e324d8c4a328de1e31c4467cb69",
}
# Each case runs well under 1 s.  An unqualified X of the mixed sampler is a
# single party, so the shape reader (the parity of the shares' byte length)
# answers alike for every party of one digit; at n = 12 parties 10-12 differ.
GAME_OVERRIDES = {"dprime": {"runs": 3}, "hybrid": {"n": 4},
                  "shape-reader": {"structure": {"kind": "threshold", "n": 12, "payload": 2}}}


@pytest.mark.parametrize("game, distinguisher", sorted(GOLDEN_REPORTS))
def test_experiment_game_golden_report(workdir, game, distinguisher):
    # every experiment mode, and the ind game under each stock distinguisher:
    # their report bytes at seed 5 are pinned
    (workdir / "g.json").write_text(json.dumps({
        **GAME_CONFIG, **GAME_OVERRIDES.get(game, {}), **GAME_OVERRIDES.get(distinguisher, {}),
        "distinguisher": distinguisher}))
    out = workdir / "g_report.json"
    assert run("--seed", 5, "experiment", game, "--config", workdir / "g.json",
               "--out", out) == EXIT_OK
    if distinguisher == "shape-reader":  # its answers vary, so the pin reads the trials
        report = json.loads(out.read_text())
        assert 0 < report["count0"] == report["count1"] < report["extra"]["mx0_trials"]
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS[game, distinguisher]


@pytest.mark.parametrize("game, extra", [
    ("ind", {}), ("sem", {}), ("equiv", {}), ("hybrid", {"n": 4, "trials": 30}),
    ("dprime", {"runs": 2, "epsilon": 1}),
])
def test_work_units_equal_a_direct_count_of_the_games_loop(workdir, monkeypatch, game, extra):
    """Counts trials, hybrid lists and ``dver`` calls as the loops run them;
    each D''s mest fires at its last round (n / epsilon = 3), the worst case."""
    units, mest_calls = [], []
    real = {name: getattr(harness, name) for name in ("_game", "dver", "mest",
                                                      "position_detector")}

    def counted(fn):
        def wrapped(*args):
            units.append(1)
            return fn(*args)
        return wrapped

    def mest(*args):
        real["mest"](*args)
        mest_calls.append(1)
        return 1 if len(mest_calls) % 3 == 0 else 0

    monkeypatch.setattr(harness, "_game", lambda g, scheme, trial, *rest: real["_game"](
        g, scheme, counted(trial), *rest))
    monkeypatch.setattr(harness, "dver", counted(real["dver"]))
    monkeypatch.setattr(harness, "mest", mest)
    monkeypatch.setattr(harness, "position_detector",
                        lambda *args: counted(real["position_detector"](*args)))
    config = {**GAME_CONFIG, "game": game, **extra}
    (workdir / "w.json").write_text(json.dumps(config))
    assert run("experiment", "--config", workdir / "w.json") == EXIT_OK
    assert len(units) == cli.work_units(game, config.get("n", 3), config["trials"],
                                        config.get("runs", 50), config.get("epsilon", 0.3))
    assert units and (game != "dprime" or len(mest_calls) == 2 * 2 * 3)


def test_work_units_accept_every_shipped_config_and_the_cap_itself():
    demos = {path.name: json.loads(path.read_text())
             for path in (ROOT / "demos" / "configs").glob("*.json")}
    counts = {name: cli.work_units(cfg["game"], cfg["structure"]["n"], cfg.get("trials", 1000),
                                   cfg.get("runs", 50), cfg["epsilon"])
              for name, cfg in demos.items()}
    assert counts == {"dprime_demo.json": 2 * 40 * (20 * 2 * 80 + 1), "ind_demo.json": 1000}
    # the largest config a test reads: test_rng's lane test, 1,000 dprime runs (stubbed)
    assert cli.work_units("dprime", 3, 1000, 1000, 0.3) == 2 * 1000 * (10 * 2 * 40 + 1)
    cap = cli.MAX_WORK_UNITS
    assert cli.work_units("ind", 3, cap, 1, 0.3) == cap
    assert cli.work_units("hybrid", 9, cap // 10, 1, 0.3) == cap
    with pytest.raises(ConfigError):
        cli.work_units("sem", 3, cap + 1, 1, 0.3)


@pytest.mark.parametrize("config, units", [
    ({**THRESHOLD3, "trials": cli.MAX_WORK_UNITS + 1}, cli.MAX_WORK_UNITS + 1),
    ({"game": "hybrid", "n": 64, "trials": 10**12}, 65 * 10**12),
    ({**THRESHOLD3, "game": "dprime", "structure": {**THRESHOLD128, "n": 127}},
     2 * 50 * (424 * 2 * 1694 + 1)),
], ids=["ind-trials", "hybrid-trials", "dprime-n-127"])
def test_experiment_over_the_work_cap_exits_2_with_one_line(workdir, monkeypatch, capsys,
                                                            config, units):
    monkeypatch.setattr(harness.SchemeContext, "create", None)  # refused before any set-up
    (workdir / "big.json").write_text(json.dumps(config))
    assert run("experiment", "--config", workdir / "big.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    game = config.get("game", "ind")
    assert captured.out == ""
    assert captured.err == (f"error: {game} needs up to {units} work units, "
                            f"over the cap {cli.MAX_WORK_UNITS}\n")


# The experiment configs the tests above write, kept small: a mutated integer
# is at most 9 or at least 10^7, past every bound and the work cap, so every
# example runs well under a second, a dropped key's default (1,000 trials,
# 50 runs, epsilon 0.3) included.
FUZZ_EXPERIMENT_CONFIGS = [
    {**GAME_CONFIG, "master_seed": 3, "distinguisher": "leak-reader", "game": "ind"},
    {**GAME_CONFIG, "game": "sem", "secret_len": 2},
    {**GAME_CONFIG, "game": "equiv", "sampler": {"kind": "mixed", "p_unqualified": 0.5}},
    {**GAME_CONFIG, "game": "dprime", "runs": 3, "epsilon": 1, "k": 8, "lam": 16},
    {**GAME_CONFIG, "game": "hybrid", "n": 4, "planted_position": 3, "planted_gap": 0.8,
     "delta": 0.01},
    {"structure": MATCHING4, "backend": "leaky", "trials": 100, "distinguisher": "shape-reader"},
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_experiment_fuzzed_configs_exit_cleanly(fuzz_dir, data):
    config = data.draw(json_mutation(data.draw(st.sampled_from(FUZZ_EXPERIMENT_CONFIGS))))
    (fuzz_dir / "exp.json").write_text(json.dumps(config))
    code, err = run_quietly("experiment", "--config", fuzz_dir / "exp.json")
    assert code in range(6), (code, config)
    assert "Traceback" not in err


@pytest.mark.parametrize("name, factory, args", [
    ("leak-reader", "leak_reader", ()),
    ("constant-0", "constant_distinguisher", (0,)),
    ("shape-reader", "shape_distinguisher", ()),
])
def test_experiment_distinguisher_name_builds_its_factory(workdir, monkeypatch, name, factory,
                                                         args):
    calls = []
    for attr in ("leak_reader", "constant_distinguisher", "shape_distinguisher"):
        def fake(*given, attr=attr):
            calls.append((attr, given))
            return lambda s0, s1, shares, sigma, rng: 0
        monkeypatch.setattr(harness, attr, fake)
    (workdir / "d.json").write_text(json.dumps({**GAME_CONFIG, "distinguisher": name}))
    assert run("experiment", "ind", "--config", workdir / "d.json") == EXIT_OK
    assert calls == [(factory, args)]


@pytest.mark.parametrize("extra, message", [
    ({"distinguisher": "oracle"}, "unknown distinguisher 'oracle'"),
    ({"sampler": {"kind": "fixed"}}, "unknown sampler kind 'fixed'"),
    ({"game": "zk"}, "unknown game 'zk'"),
], ids=["distinguisher", "sampler-kind", "game"])
def test_experiment_unknown_name_exit_2(workdir, capsys, extra, message):
    (workdir / "u.json").write_text(json.dumps({**GAME_CONFIG, **extra}))
    assert run("experiment", "--config", workdir / "u.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("structure, message", [
    ({"kind": "threshold", "n": 4, "payload": 2, "bogus": 1}, "unknown keys ['bogus']"),
    ({**CIRCUIT5, "payload": {**CIRCUIT5["payload"], "bogus": 1}},
     "unknown payload keys ['bogus']"),
], ids=["top-level", "circuit-payload"])
@pytest.mark.parametrize("command", ["structure", "deal", "experiment"])
def test_unknown_structure_key_exit_2_with_one_line(workdir, capsys, command, structure, message):
    """Every reader of a structure description refuses a key it does not know."""
    path = workdir / "u.json"
    if command == "structure":
        path.write_text(json.dumps(structure))
        argv = ("structure", "check", "--structure", path)
    elif command == "deal":
        path.write_text(json.dumps({"structure": structure, "backend": "leaky"}))
        argv = ("deal", "--config", path, "--secret", workdir / "secret.bin", "--out", workdir / "x")
    else:
        path.write_text(json.dumps({**GAME_CONFIG, "structure": structure}))
        argv = ("experiment", "--config", path)
    assert run(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad structure description: {message}\n"
    assert not (workdir / "x").exists()


NOT_CANONICAL = "error: payload is not the canonical rendering of its relation\n"


@pytest.mark.parametrize("rewrite, expected", [
    (lambda doc: doc["ciphertext"].update(payload=json.dumps(
        doc["ciphertext"]["payload"], indent=1, sort_keys=True).encode().hex()), NOT_CANONICAL),
    (lambda doc: doc["ciphertext"]["payload"]["relation"].update(bogus=1), NOT_CANONICAL),
    (lambda doc: doc["ciphertext"]["payload"]["relation"]["instance"].update(bogus=1),
     NOT_CANONICAL),
    (lambda doc: doc["ciphertext"]["payload"]["relation"]["instance"]["crs"].update(bogus=1),
     "error: embedded relation does not load: ValueError(\"unknown crs keys ['bogus']\")\n"),
], ids=["reindented", "relation-key", "instance-key", "crs-key"])
def test_recon_non_canonical_payload_exit_2_with_one_line(dealt, capsys, rewrite, expected):
    """A payload is the canonical JSON of exactly its fields: both share files
    rewritten the same way get past the mixed-dealing check and are refused.
    The CRS reader refuses an unknown key itself, before the canonical check."""
    root, shares = dealt
    paths = [root / "rewritten_1.json", root / "rewritten_2.json"]
    for share, path in zip(shares, paths):
        doc = _decode_payload(share)
        rewrite(doc)
        path.write_text(json.dumps(_encode_payload(doc)))
    assert run("recon", "--parties", "1,2", "--out", root / "rewritten.out", *paths) == EXIT_CONFIG
    assert capsys.readouterr().err == expected
    assert not (root / "rewritten.out").exists()


@pytest.mark.parametrize("where, name", [
    (lambda doc: doc, "share"), (lambda doc: doc["crs"], "crs"),
    (lambda doc: doc["ciphertext"], "ciphertext"),
], ids=["top-level", "crs", "ciphertext"])
def test_recon_share_with_an_unknown_key_exit_2_with_one_line(dealt, capsys, where, name):
    """A share file's readers refuse a key they do not know, at its top level,
    in its ``crs`` and in its ``ciphertext`` envelope, as in its payload."""
    root, shares = dealt
    paths = [root / "extra_1.json", root / "extra_2.json"]
    for share, path in zip(shares, paths):
        doc = json.loads(json.dumps(share))
        where(doc)["bogus"] = 1
        path.write_text(json.dumps(doc))
    assert run("recon", "--parties", "1,2", "--out", root / "extra.out", *paths) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {paths[0]}: unknown {name} keys ['bogus']\n"
    assert not (root / "extra.out").exists()


@pytest.mark.parametrize("k", [12, 13])
def test_leaky_deal_and_experiment_at_the_prg_table_bound(workdir, capsys, k):
    """A leaky deal that recon reads back, and a leaky experiment, run at k = 12;
    at k = 13 each exits 2 with the PRG table's one line and writes nothing."""
    (workdir / "k.json").write_text(json.dumps({
        "structure": {"kind": "threshold", "n": 3, "payload": 2}, "backend": "leaky", "k": k}))
    (workdir / "g.json").write_text(json.dumps({**GAME_CONFIG, "k": k}))
    out = workdir / "deal"
    codes = [run("deal", "--config", workdir / "k.json", "--secret", workdir / "secret.bin",
                 "--out", out), run("experiment", "--config", workdir / "g.json")]
    if k == 12:
        assert codes == [EXIT_OK, EXIT_OK]
        assert run("recon", "--parties", "1,2", "--out", workdir / "secret.out",
                   out / "share_1.json", out / "share_2.json") == EXIT_OK
        assert (workdir / "secret.out").read_bytes() == b"four"
        assert "error" not in capsys.readouterr().err
    else:
        assert codes == [EXIT_CONFIG, EXIT_CONFIG] and not out.exists()
        assert capsys.readouterr().err == "error: exhaustive block search limited to k <= 12\n" * 2


def test_recon_share_whose_embedded_structure_has_an_unknown_key_exit_2(dealt, capsys):
    """The embedded instance is read by the same strict reader: CorruptCiphertext."""
    root, (share, _) = dealt
    doc = _decode_payload(share)
    doc["ciphertext"]["payload"]["relation"]["instance"]["structure"]["bogus"] = 1
    (root / "bogus.json").write_text(json.dumps(_encode_payload(doc)))
    assert run("recon", "--parties", "1", root / "bogus.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: embedded relation does not load") and "'bogus'" in err
    assert len(err.splitlines()) == 1


def test_experiment_unknown_game_builds_no_scheme(workdir, monkeypatch, capsys):
    def create(*args, **kwargs):
        raise AssertionError("a scheme was built for an unknown game")
    monkeypatch.setattr(harness.SchemeContext, "create", create)
    (workdir / "u.json").write_text(json.dumps({**GAME_CONFIG, "game": "zk"}))
    assert run("experiment", "--config", workdir / "u.json") == EXIT_CONFIG
    assert capsys.readouterr().err == "error: unknown game 'zk'\n"


def test_experiment_choices_are_the_runner_games():
    experiment = next(a for a in cli.build_parser()._actions if a.dest == "command")
    game = next(a for a in experiment.choices["experiment"]._actions if a.dest == "game")
    assert game.choices is cli.GAMES


def test_recon_without_share_files_exits_2_in_argparse(workdir, capsys):
    # nargs="+" refuses an empty share list before cmd_recon runs
    with pytest.raises(SystemExit) as exc:
        run("recon", "--parties", "1")
    assert exc.value.code == 2
    assert "the following arguments are required: shares" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [
    (MixedDealingError, EXIT_MIXED),
    (MissingShareError, EXIT_IO),
    (OSError, EXIT_IO),
    (FileNotFoundError, EXIT_IO),
    (ConfigError, EXIT_CONFIG),
    (WeError, EXIT_CONFIG),
    (CorruptCiphertext, EXIT_CONFIG),
    (ValueError, EXIT_CONFIG),
])
def test_main_maps_exceptions_to_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_deal", fail)
    assert run("deal", "--config", "c", "--secret", "s", "--out", "o") == code
    assert capsys.readouterr().err == "error: boom\n"


def test_main_lets_other_exceptions_propagate(monkeypatch):
    def fail(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_deal", fail)
    with pytest.raises(KeyError):
        run("deal", "--config", "c", "--secret", "s", "--out", "o")


def test_experiment_report_identical_across_processes(tmp_path):
    # the report of every experiment mode, and every file a dealing writes on
    # each backend (its envelope bytes are rendered on first read), under two
    # hash seeds
    structure = {"kind": "threshold", "n": 3, "payload": 2}
    (tmp_path / "exp.json").write_text(json.dumps({
        "structure": structure, "backend": "leaky", "trials": 100, "runs": 3, "epsilon": 0.5,
    }))
    (tmp_path / "secret.bin").write_bytes(b"hash seed")
    for backend in BACKENDS:
        (tmp_path / f"{backend}.json").write_text(
            json.dumps({"structure": structure, "backend": backend}))
    src = str(pathlib.Path(__file__).parent.parent / "src")
    outputs = {}
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

        def npshare(*argv):
            return subprocess.run([sys.executable, "-m", "npshare.cli", "--seed", "7",
                                   *map(str, argv)],
                                  capture_output=True, env=env, timeout=300, check=True).stdout

        for game in cli.GAMES:
            outputs[hash_seed, game] = npshare(
                "experiment", game, "--config", tmp_path / "exp.json")
        for backend in BACKENDS:
            out = tmp_path / f"{backend}_{hash_seed}"
            npshare("deal", "--config", tmp_path / f"{backend}.json",
                    "--secret", tmp_path / "secret.bin", "--out", out)
            outputs[hash_seed, backend] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for name in (*cli.GAMES, *BACKENDS):
        assert outputs["0", name] == outputs["12345", name], name
    assert [json.loads(outputs["0", game]).get("game") for game in cli.GAMES] == [
        "ind", "sem", "dprime", None, "equiv"]  # a hybrid report has no "game"
    assert sorted(outputs["0", "cnf"]) == [
        "dealing.json", "share_1.json", "share_2.json", "share_3.json"]
