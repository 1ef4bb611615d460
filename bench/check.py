"""Correctness gate: every document's outcome against ``tests/oracles.py``.

The expected numbers come from the numpy oracles, never from the program.
Per document the oracle inner products ``ref_inner(C_k, C_h)`` are computed
once for every ordered pair, and the literal oracle formulas (two inner
products in each compatibility numerator, ``(ip_kh + ip_hk) / 2`` cross
terms in the aggregate) are applied to that table, which keeps the check
affordable at r = 96.  Report values are rounded to 12 significant digits,
so numbers must agree within ``TOL`` relative to max(1, |oracle|).

``check_cli`` and ``check_roundtrip`` return None for a correct outcome
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations

import numpy as np

from oracles import ref_aggregate, ref_inner, ref_norm, ref_quality, to_array

TOL = 1e-9
# Two subsets whose oracle qualities differ by less than this share are a
# tie that two independent float routes cannot order.
TIE = 1e-12
VALID_TOL = 1e-9  # the CLI's default --tol


class Mismatch(Exception):
    pass


def _close(name, got, want) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Mismatch(f"{name}: expected a number, got {got!r}")
    if not abs(got - want) <= TOL * max(1.0, abs(want)):
        raise Mismatch(f"{name}: got {got!r}, oracle {want!r}")


def _close_all(name, got, want) -> None:
    want = np.asarray(want, dtype=np.float64)
    got_arr = np.asarray(got, dtype=np.float64)
    if got_arr.shape != want.shape:
        raise Mismatch(f"{name}: shape {got_arr.shape}, expected {want.shape}")
    bad = np.abs(got_arr - want) > TOL * np.maximum(1.0, np.abs(want))
    if bad.any():
        at = tuple(int(x) for x in np.argwhere(bad)[0])
        raise Mismatch(f"{name}{list(at)}: got {float(got_arr[at])!r}, oracle {float(want[at])!r}")


def _vectors(doc) -> list[np.ndarray]:
    return [to_array(pairs) for _, pairs in doc.raws]


def _inner_table(zs) -> np.ndarray:
    r = len(zs)
    table = np.empty((r, r), dtype=np.complex128)
    for k in range(r):
        for h in range(r):
            table[k, h] = ref_inner(zs[k], zs[h])
    return table


def _compat(zs, ip) -> np.ndarray:
    norms = np.array([ref_norm(z) for z in zs])
    return np.abs(ip + ip.T) / (2.0 * np.outer(norms, norms))


def _aggregate(zs, ip) -> float:
    r = len(zs)
    cross = np.triu(((ip + ip.T) / 2.0).real, 1).sum()
    return (sum(ref_quality(z) for z in zs) + 2.0 * cross) / (r * r)


def _check_measure(doc, report, zs, ip) -> np.ndarray:
    names = [name for name, _ in doc.raws]
    if report.get("sources") != names:
        raise Mismatch("sources: names differ")
    iq = report["per_source_iq"]
    if list(iq) != names:
        raise Mismatch("per_source_iq: names differ")
    _close_all("per_source_iq", list(iq.values()), [ref_quality(z) for z in zs])
    compat = _compat(zs, ip)
    _close_all("compatibility", report["compatibility"], compat)
    _close_all("conflict", report["conflict"], 1.0 - compat)
    _close("aggregate_iq", report["aggregate_iq"], _aggregate(zs, ip))
    return compat


def _check_fuse(doc, report, zs, ip) -> None:
    compat = _check_measure(doc, report, zs, ip)
    r = len(zs)
    if r == 1:
        weights = np.ones(1)
    else:
        supports = (compat.sum(axis=1) - np.diag(compat)) / (r - 1)
        total = supports.sum()
        weights = supports / total if total > 0.0 else np.full(r, 1.0 / r)
    cred = report["credibility"]
    if list(cred) != [name for name, _ in doc.raws]:
        raise Mismatch("credibility: names differ")
    _close_all("credibility", list(cred.values()), weights)
    fused = sum(w * z for w, z in zip(weights, zs))
    _close_all("fused", report["fused"], np.stack([fused.real, fused.imag], axis=1))
    _close("fused_iq", report["fused_iq"], ref_quality(fused))


@lru_cache(maxsize=None)
def _subsets(r: int):
    """All non-empty subsets of range(r) in (size, lexicographic) order."""
    subsets = [c for size in range(1, r + 1) for c in combinations(range(r), size)]
    masks = np.zeros((len(subsets), r))
    for row, c in enumerate(subsets):
        masks[row, list(c)] = 1.0
    return subsets, masks, masks.sum(axis=1)


def _check_select(doc, report, zs) -> None:
    sel = report["selection"]
    if sel.get("strategy") != doc.strategy:
        raise Mismatch(f"strategy: got {sel.get('strategy')!r}")
    names = [name for name, _ in doc.raws]
    try:
        chosen = tuple(names.index(name) for name in sel["chosen"])
    except ValueError:
        raise Mismatch(f"chosen: unknown source in {sel['chosen']!r}") from None
    if len(set(chosen)) != len(chosen) or len(chosen) < doc.min_size:
        raise Mismatch(f"chosen: {chosen} is not a set of >= {doc.min_size} sources")
    if doc.strategy == "greedy":
        _close("quality", sel["quality"], ref_aggregate([zs[k] for k in chosen]))
        return
    if list(chosen) != sorted(chosen):
        raise Mismatch(f"chosen: {chosen} is not in ascending order")
    ip = _inner_table(zs)
    gram = ((ip + ip.T) / 2.0).real
    subsets, masks, sizes = _subsets(len(zs))
    quality = ((masks @ gram) * masks).sum(axis=1) / sizes**2
    quality[sizes < doc.min_size] = -np.inf
    best = int(np.argmax(quality))  # first maximum: smallest, lowest subset
    got = quality[subsets.index(chosen)]
    if chosen != subsets[best] and got < quality[best] - TIE * abs(quality[best]):
        raise Mismatch(f"chosen: {chosen}, oracle best {subsets[best]}")
    _close("quality", sel["quality"], got)


def _valid_raw(pairs) -> bool:
    z = to_array(pairs)
    return bool(
        np.all(np.isfinite(z))
        and np.all(z.real >= -VALID_TOL)
        and np.all(np.abs(np.where(z.real < 0, 1j * z.imag, z)) <= 1.0 + VALID_TOL)
        and abs(z.real.sum() - 1.0) <= VALID_TOL
        and abs(z.imag.sum()) <= VALID_TOL
    )


def _check_validate(doc, report) -> None:
    verdicts = report["sources"]
    if [v["name"] for v in verdicts] != [name for name, _ in doc.raws]:
        raise Mismatch("sources: names differ")
    for k, (v, (name, pairs)) in enumerate(zip(verdicts, doc.raws)):
        if doc.planted is not None and doc.planted[0] == k:
            code = (v.get("error") or {}).get("code")
            if v["valid"] or code != doc.planted[1]:
                raise Mismatch(f"{name}: planted {doc.planted[1]}, got {code!r}")
        elif v["valid"] is not _valid_raw(pairs):
            raise Mismatch(f"{name}: valid={v['valid']!r} disagrees with the oracle")
    if report["valid"] is not (doc.planted is None):
        raise Mismatch(f"valid: got {report['valid']!r}")


def _error_code(stderr: str) -> str | None:
    lines = stderr.splitlines()
    if not lines:
        return None
    if len(lines) != 1:
        raise Mismatch(f"stderr: {len(lines)} lines, expected one JSON record")
    try:
        return json.loads(lines[0])["error"]
    except (ValueError, KeyError, TypeError):
        raise Mismatch(f"stderr: not a JSON error record: {lines[0][:80]!r}") from None


def check_cli(doc, code, stdout: str, stderr: str) -> str | None:
    """Check one CLI outcome: exit code, stderr record and report."""
    try:
        if code != doc.exit_code:
            raise Mismatch(f"exit code {code!r}, expected {doc.exit_code}")
        error = _error_code(stderr)
        if error != doc.error:
            raise Mismatch(f"error {error!r}, expected {doc.error!r}")
        if doc.command in ("usage", "missing", "malformed"):
            if stdout:
                raise Mismatch("stdout: report printed for a failed run")
            return None
        report = json.loads(stdout)
        if doc.command == "validate":
            _check_validate(doc, report)
            return None
        zs = _vectors(doc)
        if doc.command == "select":
            _check_select(doc, report, zs)
        elif doc.command == "measure":
            _check_measure(doc, report, zs, _inner_table(zs))
        else:
            _check_fuse(doc, report, zs, _inner_table(zs))
        return None
    except Mismatch as err:
        return str(err)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
        return f"malformed report: {type(err).__name__}: {err}"


def _bits(pairs) -> np.ndarray:
    return np.asarray(pairs, dtype=np.float64).view(np.int64)


def check_roundtrip(doc, parsed) -> str | None:
    """The SourceSet read back from the emitted text must equal the input bits."""
    if [name for name, _ in parsed.sources] != [name for name, _ in doc.raws]:
        return "round-trip: names differ"
    if list(parsed.space.labels) != doc.labels:
        return "round-trip: labels differ"
    for (name, pairs), (_, dist) in zip(doc.raws, parsed.sources):
        got = [(c.real, c.imag) for c in dist.entries]
        if not np.array_equal(_bits(got), _bits(pairs)):
            return f"round-trip: {name} is not bit-identical"
    return None
