"""Reference computations that the benchmark checks qcensor's outputs against.

Everything here is written with numpy alone and never imports qcensor, so a
fault in the program cannot hide by agreeing with itself. The three kinds of
reference are:

- product references for product senders on ``network_scaling``: the receiver
  of independent senders is the tensor product of each sender's output;
- Luo's closed form for the discord of Bell-diagonal two-qubit states
  (S. Luo, PRA 77, 042303, 2008) on ``discord_verdicts``;
- the documented values and inequalities of the demos and suites.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


def projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# ----------------------------------------------------------------- channels


def amplitude_damping(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Qubit amplitude damping written out entrywise."""
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = rho[0, 0] + gamma * rho[1, 1]
    out[1, 1] = (1.0 - gamma) * rho[1, 1]
    out[0, 1] = np.sqrt(1.0 - gamma) * rho[0, 1]
    out[1, 0] = np.sqrt(1.0 - gamma) * rho[1, 0]
    return out


def depolarizing(rho: np.ndarray, strength: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - strength) * rho + strength * np.trace(rho) * np.eye(d) / d


def dephase_computational(rho: np.ndarray) -> np.ndarray:
    return np.diag(np.diag(rho))


def apply_noise(rho: np.ndarray, noise) -> np.ndarray:
    """``noise`` is None or a (kind, parameter) pair as the workloads write it."""
    if noise is None:
        return rho
    kind, param = noise
    if kind == "amplitude_damping":
        return amplitude_damping(rho, param)
    if kind == "depolarizing":
        return depolarizing(rho, param)
    if kind == "dephasing":
        return dephase_computational(rho)
    raise ValueError(f"no reference for noise kind {kind!r}")


def eigen_dephase(rho: np.ndarray, described: np.ndarray) -> np.ndarray:
    """Dephase ``rho`` in a numpy ``eigh`` basis of ``described``.

    The basis is unique up to phases when the spectrum is non-degenerate,
    and the dephasing does not depend on those phases.
    """
    _, vecs = np.linalg.eigh(described)
    out = np.zeros_like(rho, dtype=complex)
    for j in range(vecs.shape[1]):
        p = np.outer(vecs[:, j], vecs[:, j].conj())
        out += p @ rho @ p
    return out


def ensemble_state(ensemble) -> np.ndarray:
    """Density matrix of a product ensemble [(weight, (vec, vec, ...)), ...]."""
    total = sum(w for w, _ in ensemble)
    return sum((w / total) * projector(kron_all(factors)) for w, factors in ensemble)


# ------------------------------------------------------ product references


def sender_output(sender: dict, kind: str, noise) -> np.ndarray:
    """What one product sender's register holds after its link and censor.

    - replacement branch: the described (claimed) state, whatever was sent;
    - eigen-dephasing branch: the sent state after link noise, dephased in
      the eigenbasis of the described state.
    """
    described = sender["described"]
    if kind == "replacement":
        return described
    if kind == "eigen_dephasing":
        return eigen_dephase(apply_noise(sender["sent"], noise), described)
    raise ValueError(f"no reference for channel kind {kind!r}")


def product_receiver(senders, kind: str, noise) -> np.ndarray:
    return kron_all([sender_output(s, kind, noise) for s in senders])


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


# -------------------------------------------------------------- discord


def bell_diagonal_state(c) -> np.ndarray:
    """(II + c1 XX + c2 YY + c3 ZZ) / 4."""
    mat = np.kron(PAULI["I"], PAULI["I"])
    for ci, p in zip(c, ("X", "Y", "Z")):
        mat = mat + ci * np.kron(PAULI[p], PAULI[p])
    return mat / 4


def luo_discord(c) -> float:
    """Discord in nats of the Bell-diagonal state with correlations c.

    Luo (2008): the marginals are maximally mixed, so the mutual information
    is 2 ln 2 - S(rho); the classical correlation is attained by measuring
    along the axis of the largest |c_i| and equals
    ((1 - c) ln(1 - c) + (1 + c) ln(1 + c)) / 2 with c = max |c_i|.
    """
    c1, c2, c3 = (float(x) for x in c)
    lam = np.array(
        [
            1 - c1 - c2 - c3,
            1 - c1 + c2 + c3,
            1 + c1 - c2 + c3,
            1 + c1 + c2 - c3,
        ]
    ) / 4
    if lam.min() < -1e-12:
        raise ValueError(f"correlations {c} do not give a state")
    lam = lam[lam > 1e-300]
    mutual = 2 * np.log(2) + float((lam * np.log(lam)).sum())
    cmax = max(abs(c1), abs(c2), abs(c3))

    def xlogx(x: float) -> float:
        return x * np.log(x) if x > 0 else 0.0

    classical = (xlogx(1 - cmax) + xlogx(1 + cmax)) / 2
    return max(mutual - classical, 0.0)


def chsh_parameter(rho: np.ndarray) -> float:
    """Horodecki M: sum of the two largest eigenvalues of T^T T."""
    t = np.array(
        [
            [np.trace(rho @ np.kron(PAULI[a], PAULI[b])).real for b in "XYZ"]
            for a in "XYZ"
        ]
    )
    w = np.linalg.eigvalsh(t.T @ t)
    return float(w[-1] + w[-2])


# ------------------------------------------------------------------- checks


class CheckFailed(AssertionError):
    """An output of qcensor disagrees with its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(value: float, expected: float, tol: float, what: str) -> None:
    require(
        abs(float(value) - float(expected)) <= tol,
        f"{what}: {value!r} differs from {expected!r} by more than {tol:g}",
    )


def report_matrix(report: dict) -> np.ndarray:
    state = report["receiver_state"]
    return np.asarray(state["re"], dtype=float) + 1j * np.asarray(state["im"], dtype=float)
