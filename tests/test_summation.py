"""One summation rule: every sum in the package runs left to right.

Builtin sum() compensates float rounding from Python 3.12 on, so a verdict
or a printed sum near a tolerance edge would depend on the interpreter.
These tests pin the rule: no module calls sum() or math.fsum(), and making
sum() compensated on any interpreter changes no verdict and no message.
"""

import ast
import builtins
import math
from pathlib import Path

from cvdfusion import (
    CredibilityWeights,
    CvdError,
    OutcomeSpace,
    fuse,
    make_cvd,
    make_source_set,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cvdfusion"


def _is_banned_sum(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ("sum", "fsum")
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "fsum"
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
    )


def test_no_module_calls_builtin_sum_or_fsum():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _is_banned_sum(node)
    ]
    assert calls == []


def _compensated_sum(values, start=0):
    return start + math.fsum(values)


# (raw pairs, tol): the left-to-right sum and math.fsum disagree on the
# verdict, or on the sum a SumNotUnity message prints.
NEAR_UNITY = [
    ([(0.1, 0.0)] * 10, 1e-16),
    ([(1 / 7, 0.0)] * 7, 1.5e-16),
    ([(0.1, 0.1)] * 5 + [(0.1, -0.1)] * 5, 2e-17),
    ([(0.1, 0.1)] * 5 + [(0.1, -0.1)] * 5, 1e-9),
]

# The first weight vector was found by search: its left-to-right sum and
# math.fsum fall on opposite sides of 1 + WEIGHT_SUM_TOL.  The second fails
# either way, with a different sum in the message.
NEAR_UNIT_WEIGHTS = [
    (
        0.06755475567070127,
        0.17598017531045787,
        0.20398113304732768,
        0.22394868068766313,
        0.11028160984322058,
        0.21825364644062947,
    ),
    (0.1,) * 11,
]


def _outcome(build):
    try:
        return "ok", repr(build())
    except CvdError as err:
        return type(err).__name__, str(err)


def _cvd_outcomes(monkeypatch, compensated):
    with monkeypatch.context() as m:
        if compensated:
            m.setattr(builtins, "sum", _compensated_sum)
        return [
            _outcome(
                lambda: make_cvd(
                    OutcomeSpace(tuple(f"o{j}" for j in range(len(raw)))), raw, tol
                )
            )
            for raw, tol in NEAR_UNITY
        ]


def _fuse_outcomes(monkeypatch, compensated):
    with monkeypatch.context() as m:
        if compensated:
            m.setattr(builtins, "sum", _compensated_sum)
        outcomes = []
        for weights in NEAR_UNIT_WEIGHTS:
            s = make_source_set(
                OutcomeSpace(("a", "b")),
                [(f"s{k}", [(0.5, 0.25), (0.5, -0.25)]) for k in range(len(weights))],
            )
            outcomes.append(_outcome(lambda: fuse(s, CredibilityWeights(weights))))
        return outcomes


def test_make_cvd_verdicts_ignore_a_compensated_sum(monkeypatch):
    outcomes = _cvd_outcomes(monkeypatch, compensated=False)
    assert outcomes == _cvd_outcomes(monkeypatch, compensated=True)
    assert outcomes[0] == (
        "SumNotUnityError",
        "entry sum is 0.9999999999999999 + 0.0i, expected 1 + 0i (tol 1e-16)",
    )
    assert outcomes[3][0] == "ok"


def test_fuse_verdicts_ignore_a_compensated_sum(monkeypatch):
    outcomes = _fuse_outcomes(monkeypatch, compensated=False)
    assert outcomes == _fuse_outcomes(monkeypatch, compensated=True)
    assert outcomes[0][0] == "ok"
    assert outcomes[1] == (
        "InvalidWeightsError",
        "weights sum to 1.0999999999999999, expected 1",
    )

