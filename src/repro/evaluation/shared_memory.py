"""Shared-memory transport of precomputed sweep state to pool workers.

The ``"process"`` sweep executor historically re-pickled the case study
with every chunk and let every worker re-solve the per-role lower-layer
SRNs (the Table V aggregates) from scratch.  This module implements the
precompute-and-share half of the structure-sharing pipeline:

- the **parent** solves the lower-layer aggregates and explores one
  canonical COA structure per transition pattern (see
  :mod:`repro.availability.grouped`), packs every numeric array into one
  ``multiprocessing.shared_memory`` segment, and hands workers a small
  handle;
- each **pool worker** attaches the segment once (pool initializer),
  copies the arrays out, reconstructs the aggregate table and the
  canonical structures, and primes its evaluator pair — chunks then
  carry only the designs, and no worker ever re-solves the lower layer
  or re-explores a pattern the parent already explored.

Aggregates and structures cross the boundary as bit-exact float64
arrays, so worker results are byte-identical to the in-process path.
Workers copy-and-close during initialization, so segment lifetime never
depends on worker health.  The engine retains its context for the
warm pool's lifetime — so late-spawned or recycled workers can still
attach and re-prime — and unlinks it (idempotently) when the engine
closes or the context is superseded by one covering more designs (see
:meth:`SharedSweepContext.covers`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from repro import observability
from repro.availability.aggregation import ServiceAggregate
from repro.availability.grouped import CanonicalLayout, CoaStructure
from repro.availability.measures import ServerMeasures
from repro.errors import EvaluationError
from repro.evaluation.combined import labelled
from repro.observability import tracing
from repro.resilience.faults import fault_point

__all__ = [
    "pack_arrays",
    "read_arrays",
    "SharedSweepContext",
    "initialize_worker",
    "primed_evaluators",
]

_logger = logging.getLogger(__name__)

_SEGMENTS_BUILT = observability.counter(
    "repro_shared_segments_built_total",
    "Shared-memory sweep contexts built by the parent process.",
).labels()
_SEGMENT_BYTES = observability.gauge(
    "repro_shared_segment_bytes",
    "Size of the most recently built shared-memory segment.",
).labels()

#: Field order of one aggregate-table row (all float64).
_AGGREGATE_FIELDS = (
    "patch_rate",
    "recovery_rate",
    "service_up",
    "patch_down",
    "patch_ready_to_reboot",
    "service_failed",
    "hardware_down",
    "os_not_up",
)


# -- generic array packing ----------------------------------------------------


def pack_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[shared_memory.SharedMemory, dict[str, tuple[str, tuple[int, ...], int]]]:
    """Copy *arrays* into one fresh shared-memory segment.

    Returns the segment and an index ``{name: (dtype, shape, offset)}``
    that :func:`read_arrays` uses to rebuild the arrays from the raw
    buffer.  The caller owns the segment (close + unlink).
    """
    index: dict[str, tuple[str, tuple[int, ...], int]] = {}
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        index[name] = (array.dtype.str, array.shape, offset)
        offset += array.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        dtype, shape, start = index[name]
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=start)
        view[...] = array
    return segment, index


def read_arrays(
    segment: shared_memory.SharedMemory,
    index: dict[str, tuple[str, tuple[int, ...], int]],
) -> dict[str, np.ndarray]:
    """Copy every indexed array out of *segment* into private memory."""
    out: dict[str, np.ndarray] = {}
    for name, (dtype, shape, offset) in index.items():
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        out[name] = np.array(view, copy=True)
    return out


# -- parent side --------------------------------------------------------------


def _aggregate_row(aggregate: ServiceAggregate) -> list[float]:
    measures = aggregate.measures
    return [
        aggregate.patch_rate,
        aggregate.recovery_rate,
        measures.service_up,
        measures.patch_down,
        measures.patch_ready_to_reboot,
        measures.service_failed,
        measures.hardware_down,
        measures.os_not_up,
    ]


def _rebuild_aggregate(name: str, row: np.ndarray) -> ServiceAggregate:
    values = dict(zip(_AGGREGATE_FIELDS, (float(v) for v in row)))
    return ServiceAggregate(
        name=name,
        patch_rate=values["patch_rate"],
        recovery_rate=values["recovery_rate"],
        measures=ServerMeasures(
            service_up=values["service_up"],
            patch_down=values["patch_down"],
            patch_ready_to_reboot=values["patch_ready_to_reboot"],
            service_failed=values["service_failed"],
            hardware_down=values["hardware_down"],
            os_not_up=values["os_not_up"],
        ),
    )


@dataclass
class SharedSweepContext:
    """Parent-side owner of one sweep's shared-memory segment.

    ``worker_payload()`` is what the pool initializer receives: the
    evaluation context (case study / policy / database — pickled once
    per worker, not once per chunk), the segment name, the array index
    and the aggregate/structure metadata needed to rebuild value
    objects around the shared numbers.
    """

    segment: shared_memory.SharedMemory
    payload: dict

    @classmethod
    def build(cls, case_study, policy, database, designs, evaluator=None):
        """Precompute aggregates + structures for *designs* and publish.

        *evaluator* optionally supplies an
        :class:`~repro.evaluation.availability.AvailabilityEvaluator`
        whose caches persist across sweeps (the engine passes its own),
        so repeated calls only solve what they have not seen before.
        """
        with tracing.span(
            "shared:build_context", designs=len(designs)
        ) as build_span:
            return cls._build(
                case_study, policy, database, designs, evaluator, build_span
            )

    @classmethod
    def _build(
        cls, case_study, policy, database, designs, evaluator, build_span
    ):
        from repro.evaluation.availability import AvailabilityEvaluator

        if evaluator is None:
            evaluator = AvailabilityEvaluator(
                case_study, policy, database=database
            )

        role_names: list[str] = []
        variant_keys: list[tuple[str, object]] = []
        role_rows: list[list[float]] = []
        variant_rows: list[list[float]] = []
        layouts: list[CanonicalLayout] = []
        structures: list[CoaStructure] = []
        seen_roles: set[str] = set()
        seen_variants: set[tuple[str, str]] = set()
        seen_layouts: set[tuple] = set()
        for design in designs:
            labelled(
                "precomputing shared state for design",
                design,
                partial(
                    cls._precompute_design,
                    design,
                    evaluator,
                    role_names,
                    variant_keys,
                    role_rows,
                    variant_rows,
                    layouts,
                    structures,
                    seen_roles,
                    seen_variants,
                    seen_layouts,
                ),
            )

        # Role rows first, then variant rows — the exact layout
        # initialize_worker reads back (role_names index the first block,
        # variant_keys the second), regardless of which design kind was
        # encountered first.
        rows = role_rows + variant_rows
        arrays: dict[str, np.ndarray] = {
            "aggregates": np.array(rows, dtype=float).reshape(
                len(rows), len(_AGGREGATE_FIELDS)
            )
        }
        for position, structure in enumerate(structures):
            for name, array in structure.to_arrays().items():
                arrays[f"structure{position}:{name}"] = array

        segment, index = pack_arrays(arrays)
        _SEGMENTS_BUILT.inc()
        _SEGMENT_BYTES.set(segment.size)
        _logger.debug(
            "built shared context %s: %d roles, %d variants, "
            "%d structures, %d bytes",
            segment.name,
            len(role_names),
            len(variant_keys),
            len(structures),
            segment.size,
        )
        build_span.add(
            roles=len(role_names),
            variants=len(variant_keys),
            structures=len(structures),
            bytes=segment.size,
        )
        payload = {
            "case_study": case_study,
            "policy": policy,
            "database": database,
            "segment": segment.name,
            "index": index,
            "role_names": tuple(role_names),
            "variant_keys": tuple(variant_keys),
            "layouts": tuple(layouts),
        }
        return cls(segment=segment, payload=payload)

    @staticmethod
    def _precompute_design(
        design,
        evaluator,
        role_names,
        variant_keys,
        role_rows,
        variant_rows,
        layouts,
        structures,
        seen_roles,
        seen_variants,
        seen_layouts,
    ) -> None:
        """Fold one design's aggregates + structure into the tables.

        ``role_rows[i]`` always belongs to ``role_names[i]`` and
        ``variant_rows[j]`` to ``variant_keys[j]``; the two blocks are
        concatenated roles-first at pack time.
        """
        layout, slots = evaluator.design_slots(design)
        for slot in slots:
            if slot.variant is None:
                if slot.role not in seen_roles:
                    seen_roles.add(slot.role)
                    role_names.append(slot.role)
                    role_rows.append(
                        _aggregate_row(evaluator.aggregate(slot.role))
                    )
            else:
                key = (slot.role, slot.variant.name)
                if key not in seen_variants:
                    seen_variants.add(key)
                    variant_keys.append((slot.role, slot.variant))
                    variant_rows.append(
                        _aggregate_row(
                            evaluator.variant_aggregate(slot.variant, slot.role)
                        )
                    )
        if layout.tiers not in seen_layouts:
            seen_layouts.add(layout.tiers)
            structure, _ = evaluator.coa_structure_for(design)
            layouts.append(layout)
            structures.append(structure)

    def worker_payload(self) -> dict:
        """The pool-initializer argument (small, pickled once/worker)."""
        return self.payload

    def covers(self, designs) -> bool:
        """Whether the published tables serve every design in *designs*.

        True when each design's transition pattern is among the packed
        canonical structures and every role/variant slot has a row in
        the aggregate table — the warm-pool engine's cheap test (pure
        layout computation, no solving) for reusing this context across
        repeated sweeps instead of rebuilding segment and pool.
        """
        from repro.availability.grouped import design_layout

        roles = set(self.payload["role_names"])
        variants = {
            (role, variant.name)
            for role, variant in self.payload["variant_keys"]
        }
        tiers = {layout.tiers for layout in self.payload["layouts"]}
        for design in designs:
            layout, slots = design_layout(design)
            if layout.tiers not in tiers:
                return False
            for slot in slots:
                if slot.variant is None:
                    if slot.role not in roles:
                        return False
                elif (slot.role, slot.variant.name) not in variants:
                    return False
        return True

    @property
    def segment_name(self) -> str:
        """The shared-memory segment's name (for leak diagnostics)."""
        return self.segment.name

    def describe(self) -> dict | None:
        """Telemetry for ``/healthz`` lanes (None once unlinked)."""
        if self.segment is None:
            return None
        return {
            "segment": self.segment.name,
            "bytes": self.segment.size,
            "roles": len(self.payload["role_names"]),
            "variants": len(self.payload["variant_keys"]),
            "layouts": len(self.payload["layouts"]),
        }

    def unlink(self) -> None:
        """Release the segment (idempotent)."""
        if self.segment is None:
            return
        try:
            self.segment.close()
            self.segment.unlink()
        except FileNotFoundError:  # already unlinked
            pass
        self.segment = None


# -- worker side --------------------------------------------------------------

#: Per-process evaluator pair primed from the shared segment.
_WORKER: tuple | None = None


def initialize_worker(payload: dict) -> None:
    """Pool initializer: attach the segment and prime the evaluators.

    Arrays are copied out and the segment closed immediately, so the
    parent's ``unlink`` never races worker lifetime.  The attachment is
    unregistered from the resource tracker because the parent owns the
    segment — without this, the tracker would try to clean it up a
    second time at interpreter shutdown (bpo-39959) and log spurious
    leak warnings.
    """
    global _WORKER
    fault_point("shared.attach", worker_only=True)
    segment = shared_memory.SharedMemory(name=payload["segment"])
    # Fork-pool workers share the parent's resource tracker, whose cache
    # is a set: the attach's re-registration is idempotent and the
    # parent's unlink() unregisters the name exactly once.  Workers must
    # therefore neither unlink nor unregister here (a second unregister
    # would KeyError inside the tracker process, bpo-39959).
    try:
        arrays = read_arrays(segment, payload["index"])
    finally:
        segment.close()

    table = arrays["aggregates"]
    roles: dict[str, ServiceAggregate] = {}
    variants: dict[tuple[str, object], ServiceAggregate] = {}
    for position, role in enumerate(payload["role_names"]):
        roles[role] = _rebuild_aggregate(role, table[position])
    offset = len(payload["role_names"])
    for position, (role, variant) in enumerate(payload["variant_keys"]):
        variants[(role or "", variant)] = _rebuild_aggregate(
            variant.name, table[offset + position]
        )

    structures: dict[tuple, CoaStructure] = {}
    for position, layout in enumerate(payload["layouts"]):
        prefix = f"structure{position}:"
        structures[layout.tiers] = CoaStructure.from_arrays(
            layout,
            {
                name[len(prefix):]: array
                for name, array in arrays.items()
                if name.startswith(prefix)
            },
        )

    from repro.evaluation.availability import AvailabilityEvaluator
    from repro.evaluation.security import SecurityEvaluator

    case_study = payload["case_study"]
    database = payload["database"]
    availability = AvailabilityEvaluator(
        case_study, payload["policy"], database=database
    )
    availability.prime_aggregates(roles=roles, variants=variants)
    availability.prime_structures(structures)
    _logger.debug(
        "worker primed from segment %s: %d roles, %d variants, "
        "%d structures",
        payload["segment"],
        len(roles),
        len(variants),
        len(structures),
    )
    _WORKER = (
        SecurityEvaluator(case_study, database=database),
        availability,
        case_study,
        payload["policy"],
    )


def primed_evaluators() -> tuple:
    """Evaluator source of pool workers: the pair primed at initialization.

    Returns ``(security, availability, case_study, policy)`` — the shape
    the engine's chunk entry point expects from every evaluator source.
    """
    if _WORKER is None:
        raise EvaluationError(
            "shared-memory worker used before initialization; the pool "
            "initializer did not run"
        )
    return _WORKER
