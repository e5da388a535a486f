"""secret_share_reports.json: pinned secret-sharing and bipartite-cloning outputs.

The fixture pins every field of:

- `secret_share_run` at the c^2 of the `entkit protocol secret-share`
  commands in command_digests.json, for both of Charlie's bits and both of
  Alice's outcomes, with the channel's and Bob's matrix and spectrum;
- `monte_carlo_secret_share` at those c^2 and two seeds;
- `secret_share_witness_checks` on a lambda grid;
- `cloning.clone_bipartite` (local and non-local pair, with their spectra,
  and (P, Q, R, S)) on a lambda grid, both signs and two qubit machines;

each call with c = sqrt(c^2), as the CLI passes it.  A call that raises
records its DomainError message instead; the grids include such calls.
`pin.py` writes and checks the file.
"""
from __future__ import annotations

import numpy as np

from entkit import cloning, protocols
from entkit.qcore import DomainError

C2 = (0.5, 0.6666666666666666, 0.8, 0.95, 1.0, 0.3)
LAMBDAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
MACHINE_DS = (None, 0.3)                # the optimal qubit machine and one other


def cases():
    """(call name, keyword arguments) for every pinned call."""
    for c2 in C2:
        for bit in (0, 1):
            for outcome in ("+", "-"):
                yield "secret_share_run", dict(c2=c2, charlie_bit=bit, alice_outcome=outcome)
    yield "secret_share_run", dict(c2=0.8, charlie_bit=2, alice_outcome="+")
    yield "secret_share_run", dict(c2=0.8, charlie_bit=0, alice_outcome="x")
    yield "secret_share_run", dict(c2=0.8, charlie_bit=2, alice_outcome="x")
    yield "secret_share_run", dict(c2=0.3, charlie_bit=2, alice_outcome="x")
    for c2 in C2:
        for seed in (1, 7):
            yield "monte_carlo_secret_share", dict(c2=c2, n_samples=1000, seed=seed)
    yield "monte_carlo_secret_share", dict(c2=0.8, n_samples=0, seed=1)
    for c2 in (0.6666666666666666, 0.9, 1.0, 0.3):
        for lam in LAMBDAS + (-0.1, 1.5):
            yield "secret_share_witness_checks", dict(c2=c2, lambda1=lam)
    for d in MACHINE_DS:
        for lam in LAMBDAS:
            for sign in (1.0, -1.0):
                yield "clone_bipartite", dict(lambda1=lam, d=d, sign=sign)
        yield "clone_bipartite", dict(lambda1=-0.1, d=d, sign=1.0)
        yield "clone_bipartite", dict(lambda1=1.5, d=d, sign=-1.0)
    yield "clone_bipartite", dict(lambda1=0.5, n=3, sign=1.0)
    yield "clone_bipartite", dict(lambda1=1.5, n=3, sign=1.0)


def _state(rho) -> dict:
    m = rho.matrix
    return {"dims": list(rho.dims), "re": m.real.tolist(), "im": m.imag.tolist(),
            "spectrum": rho.spectrum.tolist()}


def _call(call: str, kwargs: dict) -> dict:
    """The call's pinned fields."""
    if call == "clone_bipartite":
        params = cloning.uqcm_params(kwargs.get("n", 2), kwargs.get("d"))
        local, nonlocal_, pqrs = cloning.clone_bipartite(kwargs["lambda1"], params,
                                                         sign=kwargs["sign"])
        return {"local": _state(local), "nonlocal": _state(nonlocal_), "pqrs": list(pqrs)}
    args = dict(kwargs, c=np.sqrt(kwargs["c2"]))
    del args["c2"]
    out = getattr(protocols, call)(**args)
    if call == "monte_carlo_secret_share":
        return {"result": out}
    if call == "secret_share_witness_checks":
        return {"result": {"w1_value": out.w1_value, "w2_value": out.w2_value,
                           "critical_concurrence": out.critical_concurrence,
                           "entangled": out.entangled}}
    return {"report": out.to_dict(), "channel": _state(out.channel),
            "bob_state": _state(out.bob_state)}


def record(call: str, kwargs: dict) -> dict:
    entry = {"call": call, "kwargs": kwargs}
    try:
        entry.update(_call(call, kwargs))
    except DomainError as exc:
        entry["error"] = str(exc)
    return entry


def table() -> list:
    return [record(call, kwargs) for call, kwargs in cases()]
