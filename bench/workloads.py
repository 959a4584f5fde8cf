"""The benchmark's workloads: seeded inputs, the CLI calls that consume them,
and the check each output must pass.

A workload is a deck of items. One round runs every item of the deck once,
so the share of each kind of item is the same in every run and for every
seed; the seed changes the states, unitaries, weights and suite seeds, never
the shape of the deck. Inputs are built with numpy from the seed, apart from
qcensor, and every check compares against ``oracles``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as ref
from oracles import close, require

TOL_STATE = 1e-9
# qcensor's own zero-discord bound (the discord_breach suite and its tests).
# Its fixed 50-step refinement can stop ~1e-8 nats above the minimum.
TOL_DISCORD = 1e-6

# ------------------------------------------------------------------ items


@dataclass(frozen=True)
class Item:
    """One CLI call: its arguments, the exit code it must give and the check
    its standard output must pass."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], None]


def _state_json(mat: np.ndarray, dims) -> dict:
    mat = (mat + mat.conj().T) / 2
    return {"dims": list(dims), "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _ensemble_json(ensemble) -> list:
    return [
        {
            "weight": float(w),
            "factors": [[[float(z.real), float(z.imag)] for z in f] for f in factors],
        }
        for w, factors in ensemble
    ]


def _roundtrip(mat: np.ndarray) -> np.ndarray:
    """The matrix as qcensor reads it back from the scenario file."""
    mat = (mat + mat.conj().T) / 2
    return np.asarray(mat.real.tolist()) + 1j * np.asarray(mat.imag.tolist())


# ----------------------------------------------------------- random inputs


def random_real_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    m = g @ g.T
    return (m / np.trace(m)).astype(complex)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_product_ensemble(rng: np.random.Generator, terms: int = 2):
    w = rng.uniform(0.2, 1.0, terms)
    w = w / w.sum()
    return [(float(wi), (random_pure(rng, 2), random_pure(rng, 2))) for wi in w]


def local_isotropic(rng: np.random.Generator) -> np.ndarray:
    """An isotropic two-qubit state inside the entangled-but-local window
    (1/3, 5/12], turned by a random local unitary U (x) V."""
    p = rng.uniform(0.34, 5 / 12)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    iso = p * np.outer(phi, phi.conj()) + (1 - p) * np.eye(4) / 4
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return u @ iso @ u.conj().T


# ------------------------------------------------------- network_scaling


@dataclass(frozen=True)
class Family:
    """The fixed shape of one generated scenario; the seed fills in states.

    ``labels[k]`` is the description group of sender k (senders in one
    group describe the same free state) and ``liars`` lists the senders that
    send some other state while claiming their group's state.
    """

    theory: str
    kind: str
    labels: tuple[int, ...]
    liars: tuple[int, ...] = ()
    noise: tuple | None = None
    fmt: str = "json"

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def reg_dims(self) -> tuple[int, ...]:
        return (2,) if self.theory == "imaginarity" else (2, 2)

    @property
    def joint_width(self) -> int:
        block = (len(set(self.labels)) + 1) * int(np.prod(self.reg_dims))
        return block**self.n

    @property
    def name(self) -> str:
        noise = self.noise[0] if self.noise else "clean"
        kind = "eig" if self.kind == "eigen_dephasing" else "repl"
        fmt = "" if self.fmt == "json" else "-pretty"
        return (
            f"{self.theory[:5]}-{kind}-N{self.n}-L{len(set(self.labels))}"
            f"-U{len(self.liars)}-{noise}{fmt}"
        )


AD = ("amplitude_damping", 0.3)
DEPOL = ("depolarizing", 0.2)
DEPH = ("dephasing", None)

# Link noise lifts each Kraus operator to the whole joint, so noisy items stay
# at most 256 wide: a noisy 512-wide item took 0.5-1.4 s, several times the rest.
NETWORK_FAMILIES = (
    # imaginarity on qubit registers, eigenbasis dephasing, honest senders
    Family("imaginarity", "eigen_dephasing", (0,), fmt="pretty"),
    Family("imaginarity", "eigen_dephasing", (0,), noise=AD),
    Family("imaginarity", "eigen_dephasing", (0, 1)),
    Family("imaginarity", "eigen_dephasing", (0, 1), noise=DEPOL),
    Family("imaginarity", "eigen_dephasing", (0, 0, 1), noise=AD),
    Family("imaginarity", "eigen_dephasing", (0, 1, 1), noise=DEPOL),
    Family("imaginarity", "eigen_dephasing", (0, 1, 2)),
    Family("imaginarity", "eigen_dephasing", (0, 0, 0, 0)),
    Family("imaginarity", "eigen_dephasing", (0, 0, 0, 0), noise=DEPH),
    # imaginarity, replacement, honest and untruthful senders
    Family("imaginarity", "replacement", (0,), liars=(0,), fmt="pretty"),
    Family("imaginarity", "replacement", (0, 1), liars=(1,), noise=DEPH),
    Family("imaginarity", "replacement", (0, 1, 1), liars=(2,)),
    Family("imaginarity", "replacement", (0, 0, 0, 0), liars=(1, 3), noise=AD),
    # entanglement on two-qubit registers, product ensembles
    Family("entanglement", "replacement", (0,), fmt="pretty"),
    Family("entanglement", "replacement", (0,), liars=(0,), noise=DEPOL),
    Family("entanglement", "replacement", (0, 1)),
    Family("entanglement", "replacement", (0, 1), liars=(0,), noise=DEPH),
    Family("entanglement", "replacement", (0, 0, 0)),
    Family("entanglement", "replacement", (0, 0, 0), liars=(1,)),
    # locality: isotropic states inside the local window
    Family("locality", "replacement", (0,), fmt="pretty"),
    Family("locality", "replacement", (0,), liars=(0,)),
    Family("locality", "replacement", (0, 0), noise=DEPOL),
    Family("locality", "replacement", (0, 1), liars=(1,), noise=DEPH),
    Family("locality", "replacement", (0, 0, 0)),
    Family("locality", "replacement", (0, 0, 0), liars=(2,)),
)

NETWORK_DEMOS = ("bell_filter", "eigen_smuggle", "nonlocal_activation", "noise_correction")


def _make_senders(fam: Family, rng: np.random.Generator) -> tuple[list[dict], list[dict]]:
    """Scenario sender entries plus, for the oracle, each sender's sent and
    described states as qcensor will read them."""
    groups: dict[int, dict] = {}
    for g in sorted(set(fam.labels)):
        if fam.theory == "imaginarity":
            groups[g] = {"state": _roundtrip(random_real_density(rng, 2))}
        elif fam.theory == "entanglement":
            ens = random_product_ensemble(rng)
            groups[g] = {"ensemble": ens, "state": ref.ensemble_state(ens)}
        else:
            groups[g] = {"state": _roundtrip(local_isotropic(rng))}
    d = int(np.prod(fam.reg_dims))
    entries, senders = [], []
    for k, g in enumerate(fam.labels):
        described = groups[g]["state"]
        if fam.theory == "entanglement":
            claim = {"ensemble": _ensemble_json(groups[g]["ensemble"])}
        else:
            claim = {"state": _state_json(described, fam.reg_dims)}
        if k in fam.liars:
            sent = _roundtrip(random_density(rng, d))
            entries.append(
                {"kind": "untruthful", "state": _state_json(sent, fam.reg_dims), "claimed": claim}
            )
            senders.append({"sent": sent, "described": described, "honest": False})
        else:
            entries.append({"kind": "honest", **claim})
            senders.append({"sent": described, "described": described, "honest": True})
    return entries, senders


def _network_check(fam: Family, senders: list[dict], seed: int) -> Callable[[str], None]:
    expected = ref.product_receiver(senders, fam.kind, fam.noise)
    dims = list(fam.reg_dims) * fam.n
    # the primary witness, where it follows from the receiver by a formula
    witness = None
    if fam.theory == "imaginarity":
        witness = float(np.abs(expected.imag).max())
    elif fam.theory == "locality":
        witness = max(ref.chsh_parameter(s["described"]) for s in senders)
    distances = []
    if fam.noise is not None:
        for k, s in enumerate(senders):
            if s["honest"]:
                noisy = ref.apply_noise(s["sent"], fam.noise)
                censored = ref.sender_output(s, fam.kind, fam.noise)
                distances.append(
                    (k, ref.hs_distance(s["sent"], noisy), ref.hs_distance(s["sent"], censored))
                )

    def check_json(out: str) -> None:
        report = json.loads(out)
        require(report["breach"] is False, "a product network must not breach")
        require(report["verdicts"][fam.theory]["is_free"], "primary verdict must be free")
        if witness is not None:
            close(report["verdicts"][fam.theory]["witness_value"], witness, TOL_STATE, "witness")
        require(report["seed"] == seed, "report must echo the scenario seed")
        require(report["receiver_state"]["dims"] == dims, "receiver dims")
        err = float(np.abs(ref.report_matrix(report) - expected).max())
        require(err <= TOL_STATE, f"receiver differs from the product reference by {err:.3e}")
        got = report["distances"] or []
        require(len(got) == len(distances), "one distance record per honest sender")
        for rec, (k, d_noisy, d_censored) in zip(got, distances):
            require(rec["sender"] == k, "distance record order")
            close(rec["d_noisy"], d_noisy, TOL_STATE, "d_noisy")
            close(rec["d_censored"], d_censored, TOL_STATE, "d_censored")

    def check_pretty(out: str) -> None:
        lines = out.splitlines()
        require(lines[0] == "breach: no", "a product network must not breach")
        require(lines[1] == f"seed: {seed}", "report must echo the scenario seed")
        require(
            lines[2] == f"receiver state (dims {'x'.join(map(str, dims))}):", "receiver dims"
        )
        verdict = [ln for ln in lines if ln.startswith(f"  {fam.theory}: ")]
        require(len(verdict) == 1 and verdict[0].split()[1] == "free,", "primary verdict")

    return check_json if fam.fmt == "json" else check_pretty


def _network_items(rng: np.random.Generator, out_dir: Path) -> list[Item]:
    items = []
    for i, fam in enumerate(NETWORK_FAMILIES):
        seed = int(rng.integers(0, 2**31))
        entries, senders = _make_senders(fam, rng)
        scenario = {
            "theory": fam.theory,
            "channel_kind": fam.kind,
            "senders": entries,
            "seed": seed,
        }
        if fam.noise is not None:
            kind, param = fam.noise
            params = {} if param is None else {"gamma" if kind == AD[0] else "strength": param}
            scenario["noise"] = {"kind": kind, "params": params}
        path = out_dir / f"{i:02d}-{fam.name}.json"
        path.write_text(json.dumps(scenario))
        items.append(
            Item(
                fam.name,
                ("run", "--scenario", str(path), "--format", fam.fmt),
                0,
                _network_check(fam, senders, seed),
            )
        )
    for name in NETWORK_DEMOS:
        items.append(Item(f"demo-{name}", ("demo", name, "--format", "json"), *DEMO_CHECKS[name]))
    return items


# ------------------------------------------------------------ demo checks


def _check_bell_filter(out: str) -> None:
    r = json.loads(out)
    close(r["extras"]["filtered_distance_to_claimed"], 0.0, TOL_STATE, "filtered distance")
    close(r["extras"]["honest_roundtrip_distance"], 0.0, TOL_STATE, "honest roundtrip")
    require(r["breach"] is False, "bell_filter must not breach")


def _check_eigen_smuggle(out: str) -> None:
    r = json.loads(out)
    close(r["verdicts"]["entanglement"]["witness_value"], -0.5, TOL_STATE, "PPT witness")
    close(r["extras"]["ppt_witness"], -0.5, TOL_STATE, "PPT witness extra")
    require(r["breach"] is True, "eigen_smuggle is a breach")


def _check_nonlocal_activation(out: str) -> None:
    r = json.loads(out)
    close(r["verdicts"]["locality"]["witness_value"], 25 / 72, TOL_STATE, "CHSH M")
    require(r["verdicts"]["locality"]["is_free"], "per-pair CHSH must not violate")
    require(any("activation risk" in n for n in r["notes"]), "activation-risk note")
    require(r["breach"] is False, "nonlocal_activation must not breach")


def _check_noise_correction(out: str) -> None:
    r = json.loads(out)
    pairs = [(v["d_noisy"], v["d_censored"]) for v in r["extras"]["gamma_sweep"].values()]
    pairs += [(v["d_noisy"], v["d_censored"]) for v in r["distances"]]
    require(len(pairs) == 4, "three sweep points and one link")
    for noisy, censored in pairs:
        require(censored <= noisy + 1e-12, f"d_censored {censored} > d_noisy {noisy}")


def _check_discord_breach(out: str) -> None:
    r = json.loads(out)
    require(r["breach"] is True, "discord_breach is a breach")
    require(r["verdicts"]["discord"]["witness_value"] > 1e-3, "mixture discord above 1e-3")
    for key in ("component_discord_0", "component_discord_1"):
        require(r["extras"][key] <= 1e-6, f"{key} must vanish")


DEMO_CHECKS = {
    "bell_filter": (0, _check_bell_filter),
    "eigen_smuggle": (3, _check_eigen_smuggle),
    "nonlocal_activation": (0, _check_nonlocal_activation),
    "noise_correction": (0, _check_noise_correction),
    "discord_breach": (3, _check_discord_breach),
}

# ------------------------------------------------------- discord_verdicts

# The demo costs about three scenario items. At three items in ten, the
# median falls among the scenario items and the 85th percentile in the
# middle of the demos, both away from the boundary at 70%; a tail taken
# inside the single-call items read the machine's slowest moments instead.
DISCORD_BREACHES = 5
DISCORD_HONEST = 2
DISCORD_DEMOS = 3


def _cq_pair(rng: np.random.Generator):
    """(II + a ZZ)/4 and (II + b XX)/4, both classical on the first qubit."""
    a = rng.choice([-1, 1]) * rng.uniform(0.3, 0.9)
    b = rng.choice([-1, 1]) * rng.uniform(0.3, 0.9)
    return a, b, ref.bell_diagonal_state((0, 0, a)), ref.bell_diagonal_state((b, 0, 0))


def _discord_breach_item(rng, seed: int) -> tuple[dict, Callable[[str], None]]:
    a, b, zz, xx = _cq_pair(rng)
    w = rng.uniform(0.25, 0.75)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    comp = [_roundtrip(u @ m @ u.conj().T) for m in (zz, xx)]
    joint = np.zeros((12, 12), dtype=complex)
    for idx, (weight, m) in enumerate(((w, comp[0]), (1 - w, comp[1]))):
        proj = np.zeros((3, 3))
        proj[idx, idx] = 1.0
        joint += weight * np.kron(proj, m)
    scenario = {
        "theory": "discord",
        "channel_kind": "replacement",
        "senders": [
            {
                "kind": "correlated",
                "state": _state_json(joint, (3, 2, 2)),
                "claimed": [{"state": _state_json(m, (2, 2))} for m in comp],
                "spans": 1,
            }
        ],
        "seed": seed,
    }
    expected_state = w * comp[0] + (1 - w) * comp[1]
    expected_discord = ref.luo_discord(((1 - w) * b, 0.0, w * a))

    def check(out: str) -> None:
        r = json.loads(out)
        require(r["breach"] is True, "mixed classical-quantum descriptions breach")
        v = r["verdicts"]["discord"]
        require(not v["is_free"] and v["decisive"], "mixture is a decisive resource")
        close(v["witness_value"], expected_discord, TOL_DISCORD, "discord against Luo")
        err = float(np.abs(ref.report_matrix(r) - expected_state).max())
        require(err <= TOL_STATE, f"receiver differs from the mixture by {err:.3e}")

    return scenario, check


def _discord_honest_item(rng, seed: int) -> tuple[dict, Callable[[str], None]]:
    a, b, zz, xx = _cq_pair(rng)
    base = zz if rng.random() < 0.5 else xx
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    state = _roundtrip(u @ base @ u.conj().T)
    scenario = {
        "theory": "discord",
        "channel_kind": "replacement",
        "senders": [{"kind": "honest", "state": _state_json(state, (2, 2))}],
        "seed": seed,
    }

    def check(out: str) -> None:
        r = json.loads(out)
        require(r["breach"] is False, "an honest classical-quantum sender does not breach")
        v = r["verdicts"]["discord"]
        require(v["is_free"], "classical-quantum state is free")
        # Luo's formula gives exactly 0 when only one correlation is nonzero
        close(v["witness_value"], 0.0, TOL_DISCORD, "discord of a classical-quantum state")
        err = float(np.abs(ref.report_matrix(r) - state).max())
        require(err <= TOL_STATE, f"receiver differs from the sent state by {err:.3e}")

    return scenario, check


def _discord_items(rng: np.random.Generator, out_dir: Path) -> list[Item]:
    items = []
    plan = [("breach", _discord_breach_item, 3)] * DISCORD_BREACHES + [
        ("honest", _discord_honest_item, 0)
    ] * DISCORD_HONEST
    for i, (kind, make, code) in enumerate(plan):
        seed = int(rng.integers(0, 2**31))
        path = out_dir / f"{i:02d}-discord-{kind}.json"
        scenario, check = make(rng, seed)
        path.write_text(json.dumps(scenario))
        items.append(
            Item(f"discord-{kind}", ("run", "--scenario", str(path)), code, check)
        )
    argv = ("demo", "discord_breach", "--format", "json")
    items += [Item("demo-discord_breach", argv, *DEMO_CHECKS["discord_breach"])] * DISCORD_DEMOS
    return items


# ---------------------------------------------------------- verify_suites

# The suite bounds restated here, so that a change which loosens a bound in
# qcensor still fails the benchmark.
SUITE_BOUNDS = {
    "affine_unbreakable": {"receiver_max_imag": 1e-9, "trace_defect": 1e-10},
    "convex_unbreakable": {"mixture_reconstruction": 1e-9, "ppt_negativity": 1e-9},
    "channel_axioms": {
        "trace_preservation": 1e-10,
        "dephasing_idempotence": 1e-10,
        "replacement_input_independence": 1e-10,
        **{f"condition_v_{t}": 1e-8 for t in ("coherence", "imaginarity", "entanglement", "discord")},
        "condition_v_locality": 1e-9,
        **{
            f"condition_vi_{t}": 1e-9
            for t in ("coherence", "imaginarity", "entanglement", "discord", "locality")
        },
    },
    "activation": {"marginal_roundtrip": 1e-10},
}

# samples per call; the same for every seed so that the deck keeps its shape
SUITE_SAMPLES = {
    "affine_unbreakable": (16, 20, 24, 28, 32),
    "convex_unbreakable": (4, 5, 6),
    "channel_axioms": (20, 25, 30, 35, 40),
    "activation": (1,),
}


def _suite_check(suite: str, samples: int, seed: int) -> Callable[[str], None]:
    bounds = SUITE_BOUNDS[suite]

    def check(out: str) -> None:
        r = json.loads(out)
        require(r["suite"] == suite and r["samples"] == samples and r["seed"] == seed, "echo")
        require(r["passed"] is True and r["failures"] == [], f"suite failures {r['failures']}")
        defects = r["max_defects"]
        for key, bound in bounds.items():
            require(key in defects, f"suite reports no {key}")
            require(0.0 <= defects[key] <= bound, f"{key} = {defects[key]:.3e} above {bound:g}")
        if suite == "activation":
            close(defects["chsh_parameter"], 25 / 72, TOL_STATE, "activation CHSH M")

    return check


def _verify_items(rng: np.random.Generator, out_dir: Path) -> list[Item]:
    del out_dir  # suites take no input files
    items = []
    for suite, counts in SUITE_SAMPLES.items():
        for samples in counts:
            seed = int(rng.integers(0, 2**31))
            argv = ("verify", "--suite", suite, "--samples", str(samples), "--seed", str(seed),
                    "--format", "json")
            items.append(Item(f"{suite}-{samples}", argv, 0, _suite_check(suite, samples, seed)))
    return items


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """The function that builds the deck, the percentile reported as
    ``latency_tail_ms``, the fewest rounds that leave at least ten items
    beyond that percentile, and the items run once, untimed, at set-up."""

    build: Callable[[np.random.Generator, Path], list[Item]]
    tail_percentile: int
    min_rounds: int
    warmup: tuple[str, ...]


WORKLOADS = {
    # 29 items: 7 rounds put 10.15 items beyond the 95th percentile
    "network_scaling": Workload(_network_items, 95, 7, ("demo-bell_filter", "demo-noise_correction")),
    # 10 items: 7 rounds put 10.5 items beyond the 85th percentile
    "discord_verdicts": Workload(_discord_items, 85, 7, ("discord-honest",)),
    # 14 items: 8 rounds put 11.2 items beyond the 90th percentile
    "verify_suites": Workload(_verify_items, 90, 8, ("activation-1", "affine_unbreakable-16")),
}


def build_items(workload: str, seed: int, out_dir: Path) -> list[Item]:
    """Generate and write one deck for ``workload`` from ``seed``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    return WORKLOADS[workload].build(rng, out_dir)
