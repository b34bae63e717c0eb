"""The benchmark's four workloads, run inside a child process.

Each workload turns a workload seed into an endless, deterministic
sequence of operations.  Operation ``i`` draws all of its inputs from
``Stream(derive_seed(mix64(seed), i))``: the workload seed is scrambled
first because ``derive_seed(s, i) = mix64(s ^ i)`` alone maps small
seeds onto the same set of per-operation seeds (see README.md).

Inputs are built when ``op(i)`` is called, before the timed region.  An
operation's timed work is its ``steps``; ``verify`` checks the outputs
afterwards, also outside the timed region.  Operations come in cycles of
``cycle_len``; a run always measures whole cycles, so the mix of
operation types, and with it every percentile, is the same on every run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Library functions the traced run should see are called through their
# module (``structures.evaluate``), so that its wrappers are the ones used.
from npshare import circuits, cli, cnf, commitments, harness, induced, sat, structures
from npshare.rng import Stream, derive_seed, mix64
from npshare.structures import (
    MonotoneCircuit,
    PartySet,
    circuit_structure,
    edge_index,
    hamiltonian_structure,
    matching_structure,
    threshold_structure,
)


@dataclass
class Op:
    """One operation: timed steps plus the check of their outputs."""

    label: str
    steps: tuple           # ((step name, zero-argument callable), ...)
    expected: object       # what ``verify`` compares the outputs against
    verify: Callable       # verify(outputs, expected) -> (ok, evidence bytes)
    inputs: bytes          # canonical description of the inputs


def _op_stream(base: int, i: int) -> Stream:
    return Stream(derive_seed(base, i))


def _random_subset(n: int, size: int, rng: Stream) -> set:
    members = set()
    while len(members) < size:
        members.add(1 + rng.randrange(n))
    return members


# (x1 & x2 & w) | (x3 & x4 & x5 & ~w): one free input picks the branch.
CIRCUIT5 = circuit_structure(
    MonotoneCircuit(
        n_std=5, n_free=1,
        gates=(("not", 5), ("and", 0, 1), ("and", 7, 5), ("and", 2, 3),
               ("and", 9, 4), ("and", 10, 6), ("or", 8, 11)),
        output=12,
    )
)


def qualified_case(structure, rng: Stream):
    """A qualified party set of ``structure`` and an inner witness for it."""
    n, kind, payload = structure.n, structure.kind, structure.payload
    if kind == "threshold":
        size = payload + rng.randrange(n - payload + 1)
        return PartySet.of(n, _random_subset(n, size, rng)), None
    if kind == "monotone-circuit":
        base, witness = ({1, 2}, (1,)) if rng.bit() else ({3, 4, 5}, (0,))
        extras = {1 + rng.randrange(n) for _ in range(rng.randrange(2))}
        return PartySet.of(n, base | extras), witness
    perm = list(range(1, payload + 1))
    for a in range(payload - 1, 0, -1):          # Fisher-Yates
        b = rng.randrange(a + 1)
        perm[a], perm[b] = perm[b], perm[a]
    if kind == "hamiltonian":
        witness = tuple(perm)
        edges = {edge_index(payload, perm[a], perm[(a + 1) % payload]) for a in range(payload)}
    else:
        witness = tuple(tuple(sorted(perm[a:a + 2])) for a in range(0, payload, 2))
        edges = {edge_index(payload, a, b) for a, b in witness}
    extras = {1 + rng.randrange(n) for _ in range(rng.randrange(3))}
    return PartySet.of(n, edges | extras), witness


def unqualified_case(structure, rng: Stream) -> PartySet:
    """An unqualified party set, by rejection sampling where needed."""
    n = structure.n
    if structure.kind == "threshold":
        return PartySet.of(n, _random_subset(n, rng.randrange(structure.payload), rng))
    while True:
        X = PartySet.of(n, {i + 1 for i in range(n) if rng.bit()})
        if not structures.evaluate(structure, X, expensive=True):
            return X


def _fill_prg_table(expansion: str, k: int = 8) -> None:
    commitments.block_preimage(commitments.crs_gen(1, k, Stream(0), expansion=expansion), 0)


class Reduction:
    """Pairs of D' runs, on A0 and on A1 commitment lists, at the
    criterion-4 configuration: threshold(6,2), leaky backend, eps = 0.3,
    leak-reader distinguisher.

    The sampler is ``mixed_sampler``'s, with one change: the round on
    which it first offers an unqualified singleton is scheduled instead
    of drawn.  mest fires on exactly that round (q0 = 80, q1 ~ Bin(80,
    1/2)), and never on the full set.  FIRE_ROUNDS spreads the rounds
    like mixed_sampler(p_unqualified=0.3) does, but as a fixed mix per
    cycle: drawn, P(rounds <= 2) = 0.51, so the median D' time would jump
    between the 2-round and 3-round cluster from seed to seed.
    """

    name = "reduction"
    EPS, N, SECRET_LEN = 0.3, 6, 4
    FIRE_ROUNDS = (1, 2, 1, 3, 1, 2, 4, 1, 6, 2, 1, 3, 6, 2, 1, 6, 2, 3, 4, 12)
    cycle_len = len(FIRE_ROUNDS)
    trace_ops = cycle_len
    step_names = ("dprime",)

    def __init__(self, seed: int, workdir: Path):
        self.base = mix64(seed)
        self.accepts = {True: [], False: []}     # D' answers on A0 / A1 lists

    def setup(self) -> None:
        structure = threshold_structure(self.N, 2)
        self.ctx = harness.SchemeContext.create(
            structure, seed=derive_seed(self.base, 0xC4), backend="leaky")
        self.D = harness.leak_reader()
        _fill_prg_table("splitmix64")

    def scheduled_sampler(self, fire_round: int):
        n, secret_len = self.N, self.SECRET_LEN
        rounds = 0

        def sampler(rng: Stream):
            nonlocal rounds
            rounds += 1
            s0 = rng.bytes(secret_len)
            while True:
                s1 = rng.bytes(secret_len)
                if s1 != s0:
                    break
            if rounds >= fire_round:
                return s0, s1, PartySet.of(n, {1 + rng.randrange(n)}), b""
            return s0, s1, PartySet.full(n), b""

        return sampler

    def op(self, i: int) -> Op:
        rng = _op_stream(self.base, i)
        a0 = i % 2 == 0
        lists = self.ctx.a0_commitments if a0 else self.ctx.a1_commitments
        coms = lists(rng)
        fire_round = self.FIRE_ROUNDS[i % self.cycle_len]
        sampler = self.scheduled_sampler(fire_round)
        ctx, D, eps, n = self.ctx, self.D, self.EPS, self.N
        inputs = repr((a0, fire_round, [c.bits for c in coms], rng.state)).encode()
        return Op(
            label="a0" if a0 else "a1",
            steps=(("dprime", lambda: harness.dprime(coms, eps, n, sampler, D, ctx, rng)),),
            # On an A0 list the substituted instance is always in the
            # language, so the leak reader always wins: D' must answer 1.
            expected=1 if a0 else None,
            verify=self.verify,
            inputs=inputs,
        )

    def verify(self, outputs, expected):
        (bit,) = outputs
        self.accepts[expected == 1].append(bit)
        ok = bit in (0, 1) and (expected is None or bit == expected)
        return ok, bytes([bit])

    def finish(self) -> dict:
        """The D' gap between A0 and A1 lists must reach eps/10."""
        a1, a0 = self.accepts[False], self.accepts[True]
        if not a0 or not a1:
            return {"ok": True}
        gap = abs(sum(a0) / len(a0) - sum(a1) / len(a1))
        return {"ok": gap >= self.EPS / 10, "gap": gap, "gap_min": self.EPS / 10}


class ShareRoundTrip:
    """`npshare deal` then `npshare recon` for a qualified subset with its
    inner witness, in-process through cli.main, on a fixed round-robin of
    structures with seed-drawn secrets.  One operation is one round trip;
    deal and recon are timed as its two steps."""

    STRUCTURES = (
        threshold_structure(6, 2),
        CIRCUIT5,
        hamiltonian_structure(4),
        hamiltonian_structure(5),
        matching_structure(4),
    )
    cycle_len = len(STRUCTURES)
    step_names = ("deal", "recon")

    def __init__(self, seed: int, workdir: Path):
        self.base = mix64(seed)
        self.workdir = workdir

    def setup(self) -> None:
        self.configs = []
        for j, structure in enumerate(self.STRUCTURES):
            path = self.workdir / f"config_{j}.json"
            path.write_text(json.dumps(
                {"structure": structure.to_json(), "backend": self.backend, "k": 8}))
            self.configs.append(str(path))

    def op(self, i: int) -> Op:
        j = i % self.cycle_len
        structure = self.STRUCTURES[j]
        rng = _op_stream(self.base, i)
        secret = rng.bytes(1 + rng.randrange(16))
        X, inner = qualified_case(structure, rng)
        cli_seed = rng.next64()
        work = self.workdir
        deal_dir = work / f"dealing_{j}"
        shutil.rmtree(deal_dir, ignore_errors=True)
        secret_path, witness_path, out_path = (
            work / "secret.bin", work / "witness.json", work / "recovered.bin")
        secret_path.write_bytes(secret)
        witness_path.write_text(json.dumps({"inner": inner}))
        out_path.unlink(missing_ok=True)
        deal_argv = ["--seed", str(cli_seed), "deal", "--config", self.configs[j],
                     "--secret", str(secret_path), "--out", str(deal_dir)]
        recon_argv = ["recon", "--parties", ",".join(map(str, X.sorted())),
                      "--witness", str(witness_path), "--out", str(out_path),
                      *(str(deal_dir / f"share_{p}.json") for p in X.sorted())]
        return Op(
            label=f"s{j}",
            steps=(("deal", lambda: cli.main(deal_argv)),
                   ("recon", lambda: cli.main(recon_argv))),
            expected=secret,
            verify=lambda outputs, expected: _verify_round_trip(
                outputs, expected, deal_dir, out_path),
            inputs=repr((j, secret, X.sorted(), inner, cli_seed)).encode(),
        )

    def finish(self) -> dict:
        return {"ok": True}


def _verify_round_trip(outputs, expected, deal_dir: Path, out_path: Path):
    """Both commands exit 0 and recon writes back exactly the secret."""
    recovered = out_path.read_bytes() if out_path.exists() else None
    evidence = hashlib.sha256()
    for path in sorted(deal_dir.iterdir()):
        evidence.update(path.name.encode() + path.read_bytes())
    evidence.update(recovered or b"")
    return list(outputs) == [0, 0] and recovered == expected, evidence.digest()


class ShareCnf(ShareRoundTrip):
    name = "share_cnf"
    backend = "cnf"
    trace_ops = 2 * ShareRoundTrip.cycle_len


class ShareIdealized(ShareRoundTrip):
    name = "share_idealized"
    backend = "idealized"
    trace_ops = 40 * ShareRoundTrip.cycle_len


class Decide:
    """Ground-truth decisions on substituted instances: positions in X
    commit to their own index, the others to n + i.  Half the instances
    plant a qualified X (a witness exists), half take an unqualified X (no
    witness).  Each goes through native exhaustive search and through
    compile_mprime -> tseitin -> solve_cnf."""

    name = "decide"
    KINDS = (
        threshold_structure(6, 3),
        hamiltonian_structure(4),
        matching_structure(4),
        hamiltonian_structure(5),
    )
    MAX_CONFLICTS = 2_000_000
    cycle_len = 2 * len(KINDS)
    trace_ops = cycle_len
    step_names = ("decide",)

    def __init__(self, seed: int, workdir: Path):
        self.base = mix64(seed)

    def setup(self) -> None:
        _fill_prg_table("toy")

    def op(self, i: int) -> Op:
        structure = self.KINDS[(i // 2) % len(self.KINDS)]
        planted = i % 2 == 0
        rng = _op_stream(self.base, i)
        X = qualified_case(structure, rng)[0] if planted else unqualified_case(structure, rng)
        n = structure.n
        crs = commitments.crs_gen(n, 8, rng, expansion="toy")
        coms = tuple(
            commitments.commit(p if p in X else n + p, commitments.sample_opening(crs, rng), crs)
            for p in range(1, n + 1)
        )
        inst = induced.MPrimeInstance(crs=crs, commitments=coms, structure=structure)
        return Op(
            label=f"{structure.kind}{structure.payload}-{'sat' if planted else 'unsat'}",
            steps=(("decide", lambda: self.decide(inst)),),
            expected=planted,
            verify=lambda outputs, expected: _verify_decision(inst, outputs, expected),
            inputs=repr((i % self.cycle_len, crs.bits, [c.bits for c in coms])).encode(),
        )

    def decide(self, inst):
        witness = induced.exhaustive_witness_search(inst)
        circuit = circuits.compile_mprime(inst)
        formula = cnf.tseitin(circuit)
        assignment = sat.solve_cnf(formula, max_conflicts=self.MAX_CONFLICTS)
        return witness, circuit, formula, assignment

    def finish(self) -> dict:
        return {"ok": True}


def _verify_decision(inst, outputs, expected: bool):
    """Search and CDCL agree with the planted answer; every witness checks."""
    ((witness, circuit, formula, assignment),) = outputs
    ok = (witness is not None) == expected and (assignment is not None) == expected
    if witness is not None:
        ok = ok and induced.mprime_verify(inst, witness)
    if assignment is not None:
        ok = (ok and cnf.check_assignment(formula, assignment)
              and induced.mprime_verify(inst, circuits.decode_witness(circuit, assignment)))
    evidence = repr((witness, bytes(assignment or ()))).encode()
    return ok, evidence


WORKLOADS = {w.name: w for w in (Reduction, ShareCnf, ShareIdealized, Decide)}
