"""Design-point execution engine: batch scheduling, workers, result store.

The paper's evaluation is a large design-space sweep; this package
treats each (cache organization, workload, settings) point as a
schedulable, cacheable unit of work instead of an inline function call:

* :class:`~repro.engine.key.ExperimentKey` -- canonical, hashable,
  JSON-serializable identity with a process-stable SHA-256 digest;
* :class:`~repro.engine.executor.ExecutionPlan` -- the
  plan -> execute -> resolve batch API figures and sweeps declare their
  design points through;
* :class:`~repro.engine.executor.Engine` /
  :func:`~repro.engine.executor.configure_engine` -- process-wide
  parallelism (``--jobs N``) and cache layering;
* :class:`~repro.engine.store.ResultStore` -- the persistent
  ``.repro-cache/`` content-addressed result store;
* :mod:`repro.engine.serialize` -- the one dataclass codec
  (:func:`~repro.engine.serialize.to_plain` /
  :func:`~repro.engine.serialize.from_plain`) behind digests, store
  entries and checkpoints.
"""

from repro.engine.executor import (
    Engine,
    ExecutionPlan,
    WorkerFailureError,
    configure_engine,
    get_engine,
    run_point_payload,
)
from repro.engine.key import ExperimentKey
from repro.engine.serialize import SerializationError, from_plain, to_plain
from repro.engine.store import (
    CACHE_DIR_ENV,
    SCHEMA_VERSION,
    ResultStore,
    default_cache_root,
)

__all__ = [
    "Engine",
    "ExecutionPlan",
    "WorkerFailureError",
    "configure_engine",
    "get_engine",
    "run_point_payload",
    "ExperimentKey",
    "SerializationError",
    "from_plain",
    "to_plain",
    "CACHE_DIR_ENV",
    "SCHEMA_VERSION",
    "ResultStore",
    "default_cache_root",
]
