"""cdc_reports.json: pinned controlled-dense-coding reports.

The fixture pins every CdcReport field and the shared-state vector of
`cdc_run` on a grid of families, controller outcomes, auxiliary outcomes and
admissible angles, plus the argument sets of the `entkit protocol cdc`
commands the benchmark runs.  A call that raises records its DomainError
message instead.  `pin.py` writes and checks the file.
"""
from __future__ import annotations

import numpy as np

from entkit import protocols
from entkit.qcore import DomainError

QUARTER = np.pi / 4.0
ONE = ("+", "-")
TWO = ("++", "+-", "-+", "--")
AUX = (0, 1)


def cases():
    """(function name, keyword arguments) for every pinned call."""
    for theta in (0.3, 0.6, QUARTER, 1.1):
        for outcome in ONE:
            for aux in AUX:
                yield "cdc_run", dict(family="ghz", theta=theta,
                                      controller_outcome=outcome, aux_outcome=aux)
                for index in range(1, 8):
                    yield "cdc_run", dict(family="ghz_class", theta=theta, class_index=index,
                                          controller_outcome=outcome, aux_outcome=aux)
    for l, theta in ((0.5, None), (1.0, None), (2.0, None), (0.5, 0.6)):
        for outcome in ONE:
            for aux in AUX:
                yield "cdc_run", dict(family="pati", l=l, theta=theta,
                                      controller_outcome=outcome, aux_outcome=aux)
    for family, angles in (("ghz4", ((0.6, 0.5), (0.3, 0.9), (QUARTER, QUARTER), (0.2, 0.2))),
                           ("w4", ((np.pi / 3, np.pi / 3), (1.0, 1.0), (0.6, 0.5),
                                   (QUARTER, 0.0)))):
        for theta, epsilon in angles:
            for outcome in TWO:
                for aux in AUX:
                    yield "cdc_run", dict(family=family, theta=theta, epsilon=epsilon,
                                          controller_outcome=outcome, aux_outcome=aux)
    for theta in (0.2, 0.5, 0.7, QUARTER, 1.0):
        for outcome in ONE:
            for aux in AUX:
                yield "cdc_run", dict(family="w3", theta=theta,
                                      controller_outcome=outcome, aux_outcome=aux)
    for n in (1, 3, 4):
        for outcome in ("+", "-", "0", "1"):
            for aux in AUX:
                yield "cdc_run", dict(family="liqiu_w", n=n, controller_outcome=outcome,
                                      aux_outcome=aux)
    yield "cdc_run", dict(family="liqiu_w", n=3, theta=0.6)
    for theta in (QUARTER, 1.0, 1.2, 1.4):
        for aux in (0, 1, 2):
            for outcome in ("up", "side", "down"):
                yield "cdc_run", dict(family="qutrit_ghz", theta=theta,
                                      controller_outcome=outcome, aux_outcome=aux)
            for outcome in ("+", "-"):       # the other names of "up" and "down"
                yield "cdc_run", dict(family="qutrit_ghz", theta=theta,
                                      controller_outcome=outcome, aux_outcome=aux)
    # the `entkit protocol cdc` argument sets of the benchmark's cold-CLI mix
    yield "cdc_run", dict(family="ghz", theta=0.6)
    yield "cdc_run", dict(family="ghz_class", theta=0.6, class_index=1)
    yield "cdc_run", dict(family="pati", l=0.5)
    yield "cdc_run", dict(family="ghz4", theta=0.6, epsilon=0.5)
    yield "cdc_run", dict(family="w3", theta=0.6)
    yield "cdc_run", dict(family="w4", theta=1.0, epsilon=1.0)
    yield "cdc_run", dict(family="liqiu_w", n=3)
    yield "cdc_run", dict(family="qutrit_ghz", theta=0.9)


def record(call: str, kwargs: dict) -> dict:
    entry = {"call": call, "kwargs": kwargs}
    try:
        report = getattr(protocols, call)(**kwargs)
    except DomainError as exc:
        entry["error"] = str(exc)
        return entry
    entry["report"] = report.to_dict()
    state = report.shared_state
    entry["shared_state"] = {"dims": list(state.dims), "re": state.vector.real.tolist(),
                             "im": state.vector.imag.tolist()}
    return entry


def table() -> list:
    return [record(call, kwargs) for call, kwargs in cases()]
