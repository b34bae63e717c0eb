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

from npshare.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MIXED,
    EXIT_OK,
    EXIT_REJECTED,
    main,
)
from npshare.rng import Stream
from npshare.scheme import setup
from npshare.structures import AccessStructure


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


@pytest.mark.parametrize("witness", [
    '{"openings": [], "inner": 5}', '{"inner": 5}', '{"openings": 5}', '{"openings": [5]}',
    '{"openings": null}', '{"openings": ["zz", null, null]}', "[1, 2]", '"x"', "null",
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
    "idealized": "262b5ed3b137d127f5604ae031e997cdcc874d22092f0acc3417b684c49b5baa",
    "leaky": "5faf83acbfbf9cfc42b85507200df090f86bc7e3526bd93a44928b9f910c64e9",
    "cnf": "8605ac39674c3a07d9283cfabaa6dee995ef7e1d46d0f452a8b714a6991fbe96",
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
], ids=["deal-no-structure", "deal-number", "deal-null", "deal-k-list", "experiment-empty",
        "k-list", "delta-null", "delta-0", "sampler-number", "p_unqualified-list",
        "hybrid-n-0", "hybrid-position-9"])
def test_malformed_config_exit_2_with_one_line(workdir, capsys, command, config):
    (workdir / "bad.json").write_text(json.dumps(config))
    argv = ("--secret", workdir / "secret.bin", "--out", workdir / "x") if command == "deal" else ()
    assert run(command, "--config", workdir / "bad.json", *argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]+\n", captured.err), captured.err


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


def _zero_structure_digest(share):
    share["header"]["structure_digest"] = "00" * 32
    return share


def _flip_crs_byte(share):
    bits = share["header"]["crs"]["bits"]
    share["header"]["crs"]["bits"] = f"{int(bits[:2], 16) ^ 1:02x}" + bits[2:]
    return share


@pytest.mark.parametrize("mutate", [_zero_structure_digest, _flip_crs_byte],
                         ids=["structure-digest-zeros", "crs-byte-flipped"])
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
    assert "Traceback" not in err and "header" in err
    assert not (workdir / "secret.out").exists()


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
    of the wrong type, truncated or garbage hex, a party out of range, or a
    scalar or array in place of an object.  ``change(old)`` is the new value
    or DROP."""
    nodes = list(_nodes(_decode_payload(share)))
    kind = draw(st.sampled_from(["drop", "retype", "hex", "party", "not-an-object"]))
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
    else:
        choices = [p for p, v in nodes if isinstance(v, dict)]
    path = draw(st.sampled_from(choices))
    old = dict(nodes)[path]
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
