"""The ``repro serve`` wire protocol: op registry and canonicalization.

The daemon speaks JSON lines over a stream socket — one JSON object per
``\\n``-terminated line, following the coordinator/client shape of the
distributed-transaction exemplar in SNIPPETS.md.  A request is::

    {"id": 7, "op": "simulate", "params": {"workload": "sssp", ...}}

and the daemon answers with zero or more ``progress`` events followed by
exactly one ``result`` event carrying the response envelope (see
:mod:`repro.server.daemon`).

Every op is declared here as an :class:`OpSpec` — an ordered tuple of
:class:`Param` specs plus the picklable ``module:callable`` target the
worker pool executes.  :func:`canonicalize` folds a raw params dict into
its *canonical* form: aliases resolved, defaults filled, types coerced,
choices enforced, unknown keys rejected.  Canonical params are what get
hashed into the cache key (:mod:`repro.server.cache`), so two requests
that mean the same run — different key order, alias spellings, or
defaulted-vs-explicit values — hash identically, and two requests that
differ in any real parameter cannot collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

#: Protocol version — part of every cache key, so a change to result
#: schemas invalidates stale cached envelopes wholesale.
PROTOCOL_VERSION = 1

#: Sentinel for "no default: the caller must supply this param".
_REQUIRED = object()


class ProtocolError(ValueError):
    """A malformed request: carries a machine-readable ``code``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Param:
    """One op parameter: type, default, aliases, allowed choices."""

    name: str
    type: type = int
    default: Any = _REQUIRED
    aliases: Tuple[str, ...] = ()
    choices: Optional[Tuple[Any, ...]] = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this param's type, strictly enough that
        distinct requests stay distinct (no bool→int punning)."""
        if self.type is bool:
            if isinstance(value, bool):
                return value
            raise ProtocolError(
                "bad_params", f"param {self.name!r} must be a boolean"
            )
        if self.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    "bad_params", f"param {self.name!r} must be an integer"
                )
            return value
        if self.type is float:
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ProtocolError(
                    "bad_params", f"param {self.name!r} must be a number"
                )
            return float(value)
        if self.type is str:
            if isinstance(value, str):
                return value
            # Numeric scalars stringify ("nodes": 2 ≡ "nodes": "2") —
            # the CLI's k=v parser can't spell "the string 2", and for
            # a string-typed param the two mean the same request.
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                return str(value)
            raise ProtocolError(
                "bad_params", f"param {self.name!r} must be a string"
            )
        return self.type(value)  # pragma: no cover — no such specs yet


@dataclass(frozen=True)
class OpSpec:
    """One request type the daemon serves.

    ``fn`` is the ``module:callable`` path dispatched to the worker
    pool with the canonical params as keyword arguments (exactly the
    :class:`~repro.parallel.tasks.SweepTask` contract).  ``expand``
    optionally maps canonical params to a list of ``(fn, kwargs)``
    pairs — a batch op like ``sweep`` fans out one task per grid point
    and the daemon streams a progress event per completion.  ``cacheable=False``
    ops skip the result cache and always dispatch.
    """

    name: str
    fn: str
    params: Tuple[Param, ...]
    cacheable: bool = True
    expand: Optional[Callable[[Dict[str, Any]], list]] = field(
        default=None, compare=False
    )

    def canonicalize(self, raw: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Aliases folded, defaults filled, types and choices enforced.

        The result is a plain dict with every param present, suitable
        for hashing (:func:`repro.server.cache.canonical_key`) and for
        direct use as the task target's kwargs.
        """
        raw = dict(raw or {})
        if not all(isinstance(k, str) for k in raw):
            raise ProtocolError("bad_params", "param names must be strings")
        canonical: Dict[str, Any] = {}
        for spec in self.params:
            present = [
                name
                for name in (spec.name, *spec.aliases)
                if name in raw
            ]
            if len(present) > 1:
                raise ProtocolError(
                    "bad_params",
                    f"param {spec.name!r} given under multiple names: "
                    f"{', '.join(present)}",
                )
            if present:
                value = spec.coerce(raw.pop(present[0]))
            elif spec.required:
                raise ProtocolError(
                    "bad_params", f"missing required param {spec.name!r}"
                )
            else:
                value = spec.default
            if spec.choices is not None and value not in spec.choices:
                raise ProtocolError(
                    "bad_params",
                    f"param {spec.name!r} must be one of "
                    f"{list(spec.choices)}, got {value!r}",
                )
            canonical[spec.name] = value
        if raw:
            raise ProtocolError(
                "bad_params",
                f"unknown param(s) for op {self.name!r}: "
                f"{', '.join(sorted(raw))}",
            )
        return canonical


def _expand_sweep(params: Dict[str, Any]) -> list:
    """Fan a canonical ``sweep`` request into one kwargs dict per grid
    point — same axis order and point order as ``python -m repro
    sweep``, so cached rows line up with CLI rows."""
    from repro.parallel.grid import expand_grid

    def int_list(text: str) -> list:
        try:
            return [int(v) for v in text.split(",") if v]
        except ValueError:
            raise ProtocolError(
                "bad_params", f"expected comma-separated ints: {text!r}"
            )

    if params["experiment"] == "sssp":
        axes = {
            "nodes": int_list(params["nodes"]),
            "copies": int_list(params["copies"]),
        }
        extra = {"vertices": params["vertices"]}
        fn = "repro.parallel.grid:sssp_point"
    else:
        axes = {
            "nodes": int_list(params["nodes"]),
            "mode": [m for m in params["modes"].split(",") if m],
        }
        extra = {"beam": params["beam"]}
        fn = "repro.parallel.grid:beam_point"
    points = expand_grid(axes)
    if not points:
        raise ProtocolError("bad_params", "sweep grid is empty")
    return [(fn, {**point, **extra}) for point in points]


#: The op registry.  Tests may add ops via :func:`register_op`; the
#: three built-ins mirror the CLI's experiment surface.
OPS: Dict[str, OpSpec] = {}


def register_op(spec: OpSpec) -> OpSpec:
    """Register ``spec`` (tests use this to add crash/sleep ops)."""
    OPS[spec.name] = spec
    return spec


register_op(
    OpSpec(
        name="simulate",
        fn="repro.server.ops:simulate_point",
        params=(
            Param("workload", str, choices=("sssp", "beam"), default="sssp"),
            Param("nodes", int, default=4),
            Param("copies", int, default=1),
            Param("vertices", int, default=200),
            Param("mode", str, default="blocking"),
            Param("beam", int, default=48),
        ),
    )
)

register_op(
    OpSpec(
        name="check",
        fn="repro.server.ops:check_point",
        params=(
            # ``rng_seed`` is the documented alias: both spellings mean
            # the same run and must hash to the same cache key.
            Param("seed", int, default=0, aliases=("rng_seed",)),
            Param("faults", bool, default=False),
            Param("inject_bug", bool, default=False),
        ),
    )
)

register_op(
    OpSpec(
        name="sweep",
        fn="",  # batch op: ``expand`` supplies per-point targets
        params=(
            Param(
                "experiment", str, choices=("sssp", "beam"), default="sssp"
            ),
            Param("nodes", str, default="2,4"),
            Param("copies", str, default="1,2"),
            Param("vertices", int, default=200),
            Param("modes", str, default="blocking,delayed"),
            Param("beam", int, default=48),
        ),
        expand=_expand_sweep,
    )
)


def get_op(name: Any) -> OpSpec:
    """Look ``name`` up in the registry or raise ``unknown_op``."""
    if not isinstance(name, str) or name not in OPS:
        raise ProtocolError("unknown_op", f"unknown op {name!r}")
    return OPS[name]
