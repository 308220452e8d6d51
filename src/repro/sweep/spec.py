"""Scenario enumeration: specs, plans, and deterministic seed derivation.

A sweep is a list of *scenarios* — independent, self-contained runs of
some registered task (a protocol engagement, a utility evaluation, a
sensitivity probe).  The determinism contract that makes sharding safe
lives here:

* every scenario's seed is **derived**, not drawn: a keyed hash of the
  plan's root seed and the scenario's canonical parameter encoding, so
  any shard, any worker count, and any execution order reproduce the
  identical per-scenario seed;
* scenario order is fixed at enumeration time (``index``), and the
  runner's merge restores it, so the merged record stream is
  byte-identical to the serial loop;
* parameters are plain JSON data (lists/dicts/strings/numbers), which
  makes specs cheap to ship to worker processes and lets plans
  round-trip through files.

Canonical JSON (sorted keys, no whitespace) is also the basis of the
digest helpers the differential tests compare.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "PLAN_FORMAT",
    "ScenarioSpec",
    "SweepPlan",
    "StreamDigest",
    "canonical_json",
    "digest_records",
    "derive_seed",
]

PLAN_FORMAT = "repro/sweep-plan/v1"

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              allow_nan=False)


def canonical_json(obj: Any) -> str:
    """One canonical byte encoding per value: sorted keys, no whitespace.

    ``repr``-exact floats (json uses ``float.__repr__``) make the
    encoding — and therefore every digest built on it — reproducible
    across processes and worker counts.  NaN/Infinity are rejected:
    they do not round-trip through strict JSON parsers.  The encoder is
    built once: ``json.dumps`` with these arguments builds one per call.
    """
    return _CANONICAL.encode(obj)


class StreamDigest:
    """Incremental :func:`digest_records`: fold records one at a time.

    A million-round soak cannot hold its record stream in memory just
    to hash it at the end; this accumulator produces the *identical*
    digest record by record (same canonical encoding, same newline
    framing), so a streaming producer and a buffer-everything consumer
    can be compared digest-for-digest.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, record: Any) -> None:
        """Fold one record into the running digest."""
        self._hash.update(canonical_json(record).encode("ascii"))
        self._hash.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        """Digest of everything added so far (does not finalize)."""
        return self._hash.hexdigest()


def digest_records(records: Sequence[Any]) -> str:
    """SHA-256 over the canonical encoding of an ordered record stream."""
    stream = StreamDigest()
    for rec in records:
        stream.add(rec)
    return stream.hexdigest()


def derive_seed(root_seed: int, task: str, key: str) -> int:
    """Deterministic per-scenario seed from (root seed, task, key).

    A keyed blake2b digest truncated to 63 bits — stable across Python
    versions and platforms (unlike ``hash``), collision-safe at any
    realistic sweep size, and independent of scenario *position*, so
    re-chunking or reordering a plan never changes a scenario's seed.
    """
    payload = f"{int(root_seed)}\x1f{task}\x1f{key}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One schedulable unit of a sweep.

    ``params`` must be plain JSON data.  ``seed`` is the derived
    per-scenario seed (tasks that need randomness use it; tasks whose
    params pin an explicit seed ignore it).  ``key`` is the canonical
    parameter encoding the seed was derived from — also the scenario's
    stable identity for logs and error reports.
    """

    index: int
    task: str
    params: Mapping[str, Any]
    seed: int
    key: str

    def to_dict(self) -> dict:
        return {"index": self.index, "task": self.task,
                "params": dict(self.params), "seed": self.seed}


def _make_spec(index: int, task: str, params: Mapping[str, Any],
               root_seed: int) -> ScenarioSpec:
    key = canonical_json(dict(params))
    return ScenarioSpec(index=index, task=task, params=dict(params),
                        seed=derive_seed(root_seed, task, key), key=key)


@dataclass(frozen=True)
class SweepPlan:
    """An ordered, seed-closed enumeration of scenarios.

    Construction fixes everything the runner needs: the order, the
    per-scenario seeds, and the task names.  Two plans built from the
    same (task, params, root seed) inputs are identical value-for-value
    — the plan ``digest`` makes that checkable.
    """

    root_seed: int
    scenarios: tuple[ScenarioSpec, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.scenarios)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_scenarios(cls, task: str,
                       params_list: Sequence[Mapping[str, Any]],
                       *, root_seed: int = 0) -> "SweepPlan":
        """Plan over an explicit parameter list (order preserved)."""
        return cls.from_tasks([(task, p) for p in params_list],
                              root_seed=root_seed)

    @classmethod
    def from_tasks(cls, items: Sequence[tuple[str, Mapping[str, Any]]],
                   *, root_seed: int = 0) -> "SweepPlan":
        """Plan over explicit (task, params) pairs — heterogeneous sweeps
        (e.g. one baseline scenario followed by faulty variants)."""
        specs = tuple(_make_spec(i, task, p, root_seed)
                      for i, (task, p) in enumerate(items))
        return cls(root_seed=root_seed, scenarios=specs)

    @classmethod
    def from_grid(cls, task: str, base: Mapping[str, Any],
                  grid: Mapping[str, Sequence[Any]],
                  *, root_seed: int = 0) -> "SweepPlan":
        """Cartesian product of ``grid`` axes over shared ``base`` params.

        Axes iterate in the order given, last axis fastest (row-major) —
        the same order a nested ``for`` loop over the axes would visit.
        """
        axes = list(grid.items())
        params_list = []
        for combo in itertools.product(*(values for _, values in axes)):
            p = dict(base)
            p.update({name: value for (name, _), value in zip(axes, combo)})
            params_list.append(p)
        return cls.from_scenarios(task, params_list, root_seed=root_seed)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "root_seed": self.root_seed,
            "scenarios": [{"task": s.task, "params": dict(s.params)}
                          for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPlan":
        if data.get("format") != PLAN_FORMAT:
            raise ValueError(
                f"not a {PLAN_FORMAT} payload (format={data.get('format')!r})")
        try:
            root_seed = int(data.get("root_seed", 0))
            entries = list(data["scenarios"])
            specs = tuple(
                _make_spec(i, str(e["task"]), dict(e["params"]), root_seed)
                for i, e in enumerate(entries))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed sweep plan: {exc}") from exc
        return cls(root_seed=root_seed, scenarios=specs)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def digest(self) -> str:
        """Content digest of the plan (tasks, params, seeds, order)."""
        return digest_records([s.to_dict() for s in self.scenarios])
