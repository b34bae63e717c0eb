"""Command-line front end: deal shares, reconstruct, inspect structures,
and run the harness experiments from JSON config files.

Exit codes are stable: 0 success, 1 check failure, 2 config error,
3 I/O error, 4 reconstruction rejected (no witness released the
secret), 5 mixed dealings.  Secrets travel through files, never through
argv.  Every command honors --seed for bit-exact reproducibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

from . import harness, serde
from .induced import witness_from_json
from .rng import Stream, derive_seed
from .scheme import (
    MissingShareError,
    MixedDealingError,
    recon,
    setup,
    share_parse,
    share_serialize,
)
from .structures import AccessStructure, PartySet, check_monotone
from .we import WeError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_REJECTED = 4
EXIT_MIXED = 5


class ConfigError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


DEAL_KEYS = {"structure", "k", "lam", "backend", "expansion", "master_seed"}
EXPERIMENT_KEYS = DEAL_KEYS | {
    "game", "epsilon", "trials", "delta", "secret_len", "sampler",
    "distinguisher", "runs", "n", "planted_position", "planted_gap",
}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _get(obj: dict, key: str, kind, default, ok=None, need: str = ""):
    """``obj[key]``, or ``default`` when the key is absent, as a ``kind`` (an
    int also passes as a float) that ``ok``, when given, accepts.  ``need``
    names the accepted values; anything else is a ConfigError."""
    value = obj.get(key, default)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is bool or not isinstance(value, kind) or (ok and not ok(value)):
        got = (json.dumps(obj[key]) if key in obj else
               "no value" if default is None else f"the default {json.dumps(default)}")
        raise ConfigError(f"{key} must be {need or _KIND_NAMES[kind]}, got {got}")
    return value


def _scheme_options(config: dict, backend: str) -> dict:
    """The scheme's keyword options a config sets, ``backend`` by default."""
    return {"k": _get(config, "k", int, 8, lambda v: 4 <= v <= 64, "an integer in 4..64"),
            "lam": _get(config, "lam", int, 16, lambda v: 8 <= v <= 256, "an integer in 8..256"),
            "backend": _get(config, "backend", str, backend),
            "expansion": _get(config, "expansion", (str, type(None)), None, need="a string")}


MAX_PARTIES = 127  # every share embeds all n commitments, so a dealing grows as n^2


def _parse_structure(obj, max_n: int | None = MAX_PARTIES) -> AccessStructure:
    try:
        structure = AccessStructure.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad structure description: {exc}") from exc
    if max_n is not None and structure.n > max_n:
        raise ConfigError(f"structure n must be at most {max_n}, got {structure.n}")
    return structure


def _parse_parties(text: str, n: int) -> PartySet:
    try:
        members = {int(tok) for tok in text.replace(",", " ").split()}
        return PartySet.of(n, members)
    except ValueError as exc:
        raise ConfigError(f"bad party set {text!r}: {exc}") from exc


def cmd_deal(args) -> int:
    config = _load_json(args.config)
    _check_keys(config, DEAL_KEYS, "deal config")
    structure = _parse_structure(_get(config, "structure", dict, None))
    seed = args.seed if args.seed is not None else _get(config, "master_seed", int, 0)
    with open(args.secret, "rb") as fh:
        secret = fh.read()
    if not secret:
        raise ConfigError("secret file is empty")
    dealing = setup(structure, secret, Stream(derive_seed(seed, 0)),
                    **_scheme_options(config, "idealized"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dealing.json").write_bytes(serde.canonical_json_bytes(dealing.to_json()))
    for share in dealing.shares:
        (out / f"share_{share.party}.json").write_bytes(share_serialize(share))
    print(f"wrote dealing.json and {len(dealing.shares)} share files to {out}")
    return EXIT_OK


def cmd_recon(args) -> int:
    shares = []
    for path in args.shares:
        try:
            shares.append(share_parse(Path(path).read_bytes()))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    X = _parse_parties(args.parties, shares[0].crs.n)
    inner = None
    if args.witness is not None:
        wobj = _load_json(args.witness)
        _check_keys(wobj, {"inner", "openings"}, f"{args.witness}: witness")
        # openings, when present, are parsed only to reject a malformed file
        try:
            inner = witness_from_json(wobj, shares[0].crs).inner
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{args.witness}: bad witness: {exc}") from exc
    secret = recon(shares, X, inner)
    if secret is None:
        print("reconstruction rejected: no valid witness", file=sys.stderr)
        return EXIT_REJECTED
    if args.out:
        Path(args.out).write_bytes(secret)
    else:
        sys.stdout.buffer.write(secret)
        sys.stdout.buffer.flush()
    return EXIT_OK


def cmd_structure_check(args) -> int:
    structure = _parse_structure(_load_json(args.structure), max_n=None)
    ok = check_monotone(
        structure,
        mode=args.mode,
        trials=args.trials,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    report = {
        "kind": structure.kind,
        "n": structure.n,
        "mode": args.mode,
        "monotone": ok,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _experiment_context(config, structure, seed) -> tuple:
    ctx = harness.SchemeContext.create(structure, seed=seed, **_scheme_options(config, "leaky"))
    secret_len = _get(config, "secret_len", int, 4, lambda v: 1 <= v <= 64, "an integer in 1..64")
    sampler_cfg = _get(config, "sampler", dict, {"kind": "mixed"})
    _check_keys(sampler_cfg, {"kind", "p_unqualified"}, "sampler")
    if _get(sampler_cfg, "kind", str, "mixed") != "mixed":
        raise ConfigError(f"unknown sampler kind {sampler_cfg['kind']!r}")
    p_unq = _get(sampler_cfg, "p_unqualified", float, 0.3)
    sampler = harness.mixed_sampler(structure, p_unq, secret_len)
    dname = _get(config, "distinguisher", str, "leak-reader")
    factory = {"leak-reader": harness.leak_reader,
               "constant-0": lambda: harness.constant_distinguisher(0),
               "shape-reader": harness.shape_distinguisher}.get(dname)
    if factory is None:
        raise ConfigError(f"unknown distinguisher {dname!r}")
    return ctx, sampler, factory(), secret_len


GAMES = ("ind", "sem", "dprime", "hybrid", "equiv")
MAX_WORK_UNITS = 2 * 10**6  # each size key is bounded, but an experiment costs their product


def work_units(game: str, n: int, trials: int, runs: int, eps: float) -> int:
    """An experiment's worst-case count of units, from its loops' own bounds:
    ``dver`` calls for dprime (two D' per run, each up to ceil(n/eps) rounds
    of one mest and one more ``dver`` once a mest fires), trials for ind, sem
    and equiv, n-sample lists for hybrid.  ``n`` is the structure's party
    count, or the config's ``n`` for hybrid.  Above MAX_WORK_UNITS it is a
    ConfigError."""
    if game == "dprime":
        units = 2 * runs * (math.ceil(n / eps) * 2 * harness.mest_iterations(eps, n) + 1)
    else:
        units = (n + 1) * trials if game == "hybrid" else trials
    if units > MAX_WORK_UNITS:
        raise ConfigError(f"{game} needs up to {units} work units, over the cap {MAX_WORK_UNITS}")
    return units


def _run_experiment(config, seed) -> dict:
    game = _get(config, "game", str, "ind")
    trials = _get(config, "trials", int, 1000, lambda v: v > 0, "a positive integer")
    delta = _get(config, "delta", float, 0.01, lambda v: 0 < v < 1, "a number in (0, 1)")
    eps = _get(config, "epsilon", float, 0.3, lambda v: 0.1 <= v <= 1, "a number in [0.1, 1]")
    runs = _get(config, "runs", int, 50, lambda v: v > 0, "a positive integer")
    n = _get(config, "n", int, 8, lambda v: 1 <= v <= 64, "an integer in 1..64")
    if game == "hybrid" or "planted_position" in config:  # the default is hybrid's alone
        position = _get(config, "planted_position", int, 3, lambda v: 1 <= v <= n,
                        f"an integer in 1..{n}")
    gap = _get(config, "planted_gap", float, 0.8, lambda v: 0 <= v <= 1, "a number in [0, 1]")
    if game not in GAMES:
        raise ConfigError(f"unknown game {game!r}")
    if game == "hybrid":
        work_units(game, n, trials, runs, eps)
        loc = harness.hybrid_locate(
            harness.position_detector(position, gap, n), n, trials,
            master_seed=seed, sample_source=harness.transparent_sample_source,
            delta=delta,
        )
        return loc.to_json()
    structure = _parse_structure(_get(config, "structure", dict, None))
    work_units(game, structure.n, trials, runs, eps)
    ctx, sampler, D, secret_len = _experiment_context(config, structure, seed)
    if game == "ind":
        report = harness.ind_game(ctx, sampler, D, trials, master_seed=seed, delta=delta)
        return report.to_json()
    if game == "sem":
        report = harness.sem_game(
            ctx, harness.sem_view(sampler), harness.leak_learner(),
            harness.guess_simulator(secret_len), lambda s: s,
            trials, master_seed=seed, delta=delta,
        )
        return report.to_json()
    if game == "dprime":
        lanes = [derive_seed(seed, lane) for lane in (0xA0, 0xD0, 0xA1, 0xD1)]
        c0, c1 = harness.dprime_gap(ctx, eps, sampler, D, runs,
                                    lambda t: tuple(derive_seed(lane, t) for lane in lanes))
        return {
            "game": "dprime", "runs": runs, "epsilon": eps, "master_seed": seed,
            "accept_a0": c0 / runs, "accept_a1": c1 / runs,
            "gap": abs(c0 - c1) / runs,
        }
    samp2, d2 = harness.sem_to_ind(harness.sem_view(sampler), harness.leak_learner(),
                                   lambda s: s)
    ind_report = harness.ind_game(ctx, samp2, d2, trials, master_seed=seed, delta=delta)
    t_bits = 8 * secret_len
    transformed = harness.ind_to_sem(sampler, harness.leak_reader(), t_bits,
                                     probe_seed=seed)
    return {
        "game": "equiv",
        "sem_to_ind": ind_report.to_json(),
        "ind_to_sem_dictators": list(transformed.dictators),
        "ind_to_sem_dictators_empty": not transformed.dictators,
        "master_seed": seed,
    }


def cmd_experiment(args) -> int:
    config = _load_json(args.config)
    _check_keys(config, EXPERIMENT_KEYS, "experiment config")
    if args.game is not None:
        config["game"] = args.game
    seed = args.seed if args.seed is not None else _get(config, "master_seed", int, 0)
    report = _run_experiment(config, seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    summary = {k: v for k, v in report.items() if not isinstance(v, (dict, list))}
    print("--- summary ---", file=sys.stderr)
    for key in sorted(summary):
        print(f"{key:>22}: {summary[key]}", file=sys.stderr)
    return EXIT_OK


@cache  # built on the first call, reused by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npshare",
        description="Secret sharing for monotone-NP access structures (desk-scale toolkit)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_deal = sub.add_parser("deal", help="run the dealer and write share files")
    p_deal.add_argument("--config", required=True)
    p_deal.add_argument("--secret", required=True, help="file with the raw secret bytes")
    p_deal.add_argument("--out", required=True, help="output directory")
    p_deal.set_defaults(fn="cmd_deal")

    p_recon = sub.add_parser("recon", help="reconstruct from share files")
    p_recon.add_argument("--parties", required=True, help="e.g. '1,3'")
    p_recon.add_argument("--witness", default=None, help="witness JSON file")
    p_recon.add_argument("--out", default=None, help="write the secret here instead of stdout")
    p_recon.add_argument("shares", nargs="+", help="share_i.json files")
    p_recon.set_defaults(fn="cmd_recon")

    p_struct = sub.add_parser("structure", help="structure tools")
    struct_sub = p_struct.add_subparsers(dest="action", required=True)
    p_check = struct_sub.add_parser("check", help="monotonicity check")
    p_check.add_argument("--structure", required=True, help="structure JSON file")
    p_check.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.set_defaults(fn="cmd_structure_check")

    p_exp = sub.add_parser("experiment", help="run a harness experiment from a config")
    p_exp.add_argument("game", nargs="?", default=None, choices=GAMES)
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None, help="also write the report JSON here")
    p_exp.set_defaults(fn="cmd_experiment")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)  # looked up now, so a rebound cmd_* applies
    except (ValueError, OSError, WeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MixedDealingError):
            return EXIT_MIXED
        # a member of X without a share file is an input problem
        return EXIT_IO if isinstance(exc, (MissingShareError, OSError)) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
