"""Replayable repro artifacts — the JSON exchange format of the harness.

A minimized failing stream is only useful if it travels: CI uploads it,
a developer downloads it, and ``repro verify --replay ARTIFACT`` runs
*exactly* the failing scenario locally.  This module owns that file
format.  There is one kind, ``"diff"``: the (minimized) stream, the
:class:`~repro.verify.differential.RunnerConfig` panel it fails under
(fault plans and injector seeds included), the :func:`run_diff`
parameters (``kind``, ``H``, ``n``, ``eps``, ``seed``, ``deep_every``)
and the constants.  A chaos trial is a one-member panel, so its
failures are written the same way.

:func:`minimize_repro` is the one shrink-and-write path: ``repro verify
--artifact-out`` reaches it for red panels and, through
:func:`~repro.resilience.chaos.chaos_soak`, for red fault trials.
``replay_artifact`` re-runs the scenario and reports whether the
recorded failure **reproduces** — the exit-0 condition of ``repro
verify --replay`` is "yes, it still fails", because a repro artifact
that no longer fails is itself a finding (the bug moved).

The format is versioned and validated on read; unknown versions, kinds
and malformed payloads raise :class:`~repro.errors.ParameterError`
rather than half-replaying garbage.  See docs/VERIFICATION.md for the
schema.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..errors import ParameterError
from ..graphs.streams import BatchOp
from .differential import DiffReport, RunnerConfig, minimize_diff, run_diff

FORMAT = "repro-verify-repro"
VERSION = 1
KIND = "diff"


def _encode_stream(ops: Sequence[BatchOp]) -> list:
    return [[op.kind, [list(e) for e in op.edges]] for op in ops]


def _decode_stream(raw: Any) -> list[BatchOp]:
    if not isinstance(raw, list):
        raise ParameterError("artifact stream must be a list of [kind, edges]")
    ops: list[BatchOp] = []
    for entry in raw:
        try:
            kind, edges = entry
            if kind not in ("insert", "delete"):
                raise ValueError(kind)
            ops.append(BatchOp(kind, tuple((int(u), int(v)) for u, v in edges)))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed artifact stream entry {entry!r}") from exc
    return ops


def write_artifact(
    path: str | pathlib.Path,
    *,
    ops: Sequence[BatchOp],
    configs: Sequence[RunnerConfig],
    params: dict,
    constants: Optional[Constants] = None,
    expected: Optional[dict] = None,
) -> pathlib.Path:
    """Serialise a minimized repro; returns the path written."""
    if not configs:
        raise ParameterError("an artifact needs its config panel")
    payload: dict[str, Any] = {
        "format": FORMAT,
        "version": VERSION,
        "kind": KIND,
        "stream": _encode_stream(ops),
        "configs": [c.to_dict() for c in configs],
        "params": dict(params),
        "expected": dict(expected or {}),
    }
    if constants is not None:
        payload["constants"] = dataclasses.asdict(constants)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_artifact(path: str | pathlib.Path) -> dict:
    """Load and validate an artifact; returns the decoded payload."""
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read artifact {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ParameterError(f"{path} is not a {FORMAT} artifact")
    if payload.get("version") != VERSION:
        raise ParameterError(
            f"{path}: unsupported artifact version {payload.get('version')!r} "
            f"(this build reads version {VERSION})"
        )
    if payload.get("kind") != KIND:
        raise ParameterError(
            f"{path}: unknown artifact kind {payload.get('kind')!r} "
            f"(this build reads {KIND!r})"
        )
    payload["stream"] = _decode_stream(payload.get("stream"))
    _decode_configs(payload.get("configs"))  # validated, kept as dicts
    if not isinstance(payload.get("params", {}), dict):
        raise ParameterError(f"{path}: artifact params must be a mapping")
    return payload


def _decode_configs(raw: Any) -> list[RunnerConfig]:
    if not isinstance(raw, list) or not raw:
        raise ParameterError("artifact configs must be a non-empty list of members")
    try:
        return [RunnerConfig.from_dict(d) for d in raw]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"malformed artifact config member: {exc}") from exc


def _constants_of(payload: dict) -> Constants:
    raw = payload.get("constants")
    if raw is None:
        return Constants()
    known = {f.name for f in dataclasses.fields(Constants)}
    return Constants(**{k: v for k, v in raw.items() if k in known})


def minimize_repro(
    ops: Sequence[BatchOp],
    report: DiffReport,
    path: Optional[str | pathlib.Path] = None,
    *,
    configs: Sequence[RunnerConfig],
    constants: Constants = DEFAULT_CONSTANTS,
    **params: Any,
) -> tuple[list[BatchOp], Optional[pathlib.Path]]:
    """Shrink a red :func:`run_diff` and, given ``path``, write the artifact.

    ``params`` are the remaining :func:`run_diff` keywords of the red run
    (``kind``, ``H``, ``eps``, ``seed``, ``n``, ``deep_every``); they are
    recorded verbatim so the replay rebuilds the same structures.
    Returns the minimal stream and the path written (``None`` without a
    path).
    """
    minimal, probe = minimize_diff(
        ops, report, configs=configs, constants=constants, **params
    )
    if path is None:
        return minimal, None
    written = write_artifact(
        path,
        ops=minimal,
        configs=probe,
        params=params,
        constants=constants,
        expected={
            "divergences": [
                f"batch {d.batch} [{d.config}] {d.observable}"
                for d in report.divergences
            ],
        },
    )
    return minimal, written


def replay_artifact(path: str | pathlib.Path) -> tuple[bool, str]:
    """Re-run a repro artifact; ``(reproduced, rendered report)``.

    ``reproduced`` is True iff the replay is still red.
    """
    payload = read_artifact(path)
    params = payload.get("params", {})
    report = run_diff(
        payload["stream"],
        configs=_decode_configs(payload["configs"]),
        kind=str(params.get("kind", "ladders")),
        H=int(params.get("H", 4)),
        eps=float(params.get("eps", 0.35)),
        constants=_constants_of(payload),
        seed=int(params.get("seed", 0)),
        n=int(params["n"]) if "n" in params else None,
        deep_every=int(params.get("deep_every", 0)),
    )
    return (not report.ok, report.render())
