"""Shared-memory data plane for the valuation engine's worker pool.

A fan-out that forks a fresh fleet per call pays its dataset tax on
every call: each forked fleet inherits (copy-on-write) the training and
validation arrays, the utility closure, and the subset cache, and a
*restarted* worker re-forks the whole address space again.
:class:`SharedArrayBundle` moves the immutable arrays out of any single
process's address space into named POSIX shared memory
(:mod:`multiprocessing.shared_memory`), where they are published exactly
once per pool:

- the **owner** (the driver) calls :meth:`SharedArrayBundle.create` with a
  mapping of named numpy arrays; the arrays are packed, 64-byte aligned,
  into one segment and the owner keeps zero-copy views over it;
- **workers** call :meth:`SharedArrayBundle.attach` with the picklable
  :meth:`spec` (segment name + per-array dtype/shape/offset) and get
  read-only zero-copy views — a worker *replacement* re-attaches to the
  same segment instead of re-copying or re-inheriting the dataset;
- the views are marked non-writable on both sides, so no process can
  scribble on the shared plane by accident.

Lifecycle safety is the other half of the contract. Named segments outlive
their creator unless explicitly unlinked, so every owner registers both a
``weakref.finalize`` (covers garbage collection and interpreter shutdown)
and an ``atexit`` hook (covers leaked references) that close and unlink the
segment; attachers register close-only finalizers. Segment names embed the
owner's provenance — PID plus, on reapable platforms, a boot/PID-namespace
token and the owner's process start time
(``repro-shm-<pid>-<node>-<start>-<token>``) — so
:func:`reap_stale_segments` can sweep segments whose owner died without
running cleanup (``kill -9``) while never confusing a recycled PID or a
live process in a foreign namespace for the owner: pool construction calls
it, making any crashed run's segments reclaimed by the next pool instead
of accumulating in ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import secrets
import weakref
from typing import Any, Iterable, Mapping

import numpy as np

try:  # pragma: no cover - import guard exercised indirectly
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - py>=3.8 always has it
    _shared_memory = None

__all__ = [
    "SHM_AVAILABLE",
    "SEGMENT_PREFIX",
    "SharedArrayBundle",
    "shareable_arrays",
    "reap_stale_segments",
]

#: Whether named shared memory is available on this interpreter/platform.
SHM_AVAILABLE = _shared_memory is not None

#: Prefix of every segment this module creates; the reaper only ever
#: touches names carrying it, so foreign segments are never at risk.
SEGMENT_PREFIX = "repro-shm-"

#: Byte alignment of each packed array, so every view starts on a cache
#: line and dtype alignment requirements are met for any element type.
_ALIGN = 64

#: Where POSIX shared memory appears as files (Linux). Reaping is a no-op
#: on platforms that do not expose segments here.
_SHM_DIR = "/dev/shm"


def _attach_segment(name: str) -> Any:
    """Open an existing segment without claiming cleanup responsibility.

    Python < 3.13 registers every :class:`SharedMemory` — even attach-only
    handles — with the resource tracker, which then unlinks the segment
    when *any* process exits and complains about "leaks" the owner is
    already responsible for. On 3.13+ ``track=False`` opts out directly;
    earlier interpreters get the registration suppressed for the duration
    of the constructor (attach happens on a single thread, before a worker
    takes any task, so the brief patch races nothing).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # ``track=`` is 3.13+
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(res_name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - defensive
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def shareable_arrays(arrays: Mapping[str, Any]) -> bool:
    """Whether every value is a numpy array a segment can hold.

    Object-dtype arrays hold pointers private to one address space and can
    never cross a shared-memory boundary; everything with a fixed itemsize
    (numerics, bools, fixed-width strings/bytes) can.
    """
    if not SHM_AVAILABLE:
        return False
    for value in arrays.values():
        if not isinstance(value, np.ndarray):
            return False
        if value.dtype.hasobject:
            return False
    return True


class SharedArrayBundle:
    """A set of named numpy arrays packed into one shared-memory segment.

    Use :meth:`create` in the owner and :meth:`attach` (with the owner's
    :meth:`spec`) everywhere else; both sides read the arrays through
    :attr:`arrays`, a dict of zero-copy read-only views. The owner unlinks
    the segment on :meth:`close` (or at interpreter exit / GC, whichever
    comes first); attachers only drop their mapping.
    """

    def __init__(self, shm: Any, layout: dict, owner: bool) -> None:
        self._shm = shm
        self._layout = layout
        self.owner = bool(owner)
        self.name = layout["name"]
        self.nbytes = int(layout["nbytes"])
        self._closed = False
        self._views: dict[str, np.ndarray] = {}
        for key, meta in layout["arrays"].items():
            view = np.frombuffer(
                shm.buf,
                dtype=np.dtype(meta["dtype"]),
                count=int(np.prod(meta["shape"], dtype=np.int64)),
                offset=int(meta["offset"]),
            ).reshape(meta["shape"])
            view.flags.writeable = False
            self._views[key] = view
        # GC-ordering safety: the finalizer holds only what cleanup needs,
        # never ``self``, so the bundle itself stays collectable.
        self._finalizer = weakref.finalize(
            self, _cleanup_segment, shm, self.owner
        )
        if self.owner:
            atexit.register(self._finalizer)

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], reap: bool = True
    ) -> "SharedArrayBundle":
        """Publish ``arrays`` into a fresh segment; returns the owner handle.

        ``reap=True`` first sweeps segments left behind by crashed owners
        (see :func:`reap_stale_segments`), so long-lived services never
        accumulate orphans.
        """
        if not SHM_AVAILABLE:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        if not arrays:
            raise ValueError("cannot publish an empty array bundle")
        if not shareable_arrays(arrays):
            raise ValueError(
                "arrays must all be numpy arrays without object dtype"
            )
        if reap:
            reap_stale_segments()
        packed = {
            key: np.ascontiguousarray(value) for key, value in arrays.items()
        }
        offsets: dict[str, int] = {}
        cursor = 0
        for key, value in packed.items():
            cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
            offsets[key] = cursor
            cursor += value.nbytes
        name = _segment_name()
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, cursor), name=name
        )
        layout = {
            "name": name,
            "nbytes": max(1, cursor),
            "arrays": {
                key: {
                    "dtype": value.dtype.str,
                    "shape": list(value.shape),
                    "offset": offsets[key],
                }
                for key, value in packed.items()
            },
        }
        for key, value in packed.items():
            target = np.frombuffer(
                shm.buf,
                dtype=value.dtype,
                count=value.size,
                offset=offsets[key],
            )
            target[:] = value.reshape(-1)
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, spec: Mapping[str, Any]) -> "SharedArrayBundle":
        """Map an existing segment read-only from its picklable ``spec``."""
        if not SHM_AVAILABLE:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        layout = {
            "name": spec["name"],
            "nbytes": spec["nbytes"],
            "arrays": {
                key: dict(meta) for key, meta in spec["arrays"].items()
            },
        }
        return cls(_attach_segment(spec["name"]), layout, owner=False)

    # ------------------------------------------------------------------ #
    # access                                                             #
    # ------------------------------------------------------------------ #

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy read-only views over the packed arrays."""
        if self._closed:
            raise RuntimeError("bundle is closed")
        return dict(self._views)

    def spec(self) -> dict:
        """Picklable attachment recipe (segment name + array layout)."""
        return {
            "name": self.name,
            "nbytes": self.nbytes,
            "arrays": {
                key: dict(meta)
                for key, meta in self._layout["arrays"].items()
            },
        }

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drop views and the mapping; the owner also unlinks. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._views = {}
        if self.owner:
            atexit.unregister(self._finalizer)
        self._finalizer()

    def unlink(self) -> None:
        """Owner-side alias for :meth:`close` (segment removal included)."""
        if not self.owner:
            raise RuntimeError("only the owning bundle may unlink its segment")
        self.close()

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        state = "closed" if self._closed else "open"
        return (
            f"SharedArrayBundle({self.name!r}, {role}, {state}, "
            f"{len(self._layout['arrays'])} arrays, {self.nbytes} bytes)"
        )


def _cleanup_segment(shm: Any, owner: bool) -> None:
    """Module-level so finalizers never resurrect the bundle."""
    try:
        shm.close()
    except BufferError:
        # Someone still holds a view. Drop our handles instead: the
        # mapping lives exactly until the last view dies (then the mmap's
        # own GC releases it), and disarming the handle keeps the stdlib
        # ``__del__`` from retrying the failing close at collection time.
        # The unlink below still runs, so the *name* cannot leak. The
        # attributes are CPython-stdlib internals, so any that are
        # missing or renamed simply leave the handle to GC.
        try:
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
        except (AttributeError, OSError):  # pragma: no cover - fallback
            pass
        try:
            shm._buf = None
            shm._mmap = None
        except AttributeError:  # pragma: no cover - non-CPython layout
            pass
    except OSError:  # pragma: no cover - already torn down
        pass
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform quirks
            pass


_NODE_TOKEN: str | None = None


def _node_token() -> str:
    """8-hex digest identifying this boot + PID namespace.

    A segment named under a different boot or PID namespace (a container
    sharing ``/dev/shm``) carries a different token: its owner PID is
    meaningless in our namespace, so the reaper must treat it as alive.
    """
    global _NODE_TOKEN
    if _NODE_TOKEN is None:
        parts = []
        try:
            with open("/proc/sys/kernel/random/boot_id") as fh:
                parts.append(fh.read().strip())
        except OSError:  # pragma: no cover - non-Linux
            pass
        try:
            parts.append(str(os.stat("/proc/self/ns/pid").st_ino))
        except OSError:  # pragma: no cover - non-Linux
            pass
        digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
        _NODE_TOKEN = digest[:8]
    return _NODE_TOKEN


def _pid_start(pid: int) -> int | None:
    """Process start time (clock ticks since boot), or None off-Linux.

    Field 22 of ``/proc/<pid>/stat``; the comm field may itself contain
    spaces and parentheses, so parse after the *last* ``)``.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read().decode("ascii", "replace")
        return int(stat.rsplit(")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return None


def _segment_name() -> str:
    """Fresh segment name carrying owner provenance where reapable.

    Where segments surface in :data:`_SHM_DIR` (the only place
    :func:`reap_stale_segments` works) the name embeds a node token and
    the owner's start time besides its PID, so the reaper can tell a dead
    owner from a recycled PID or a foreign-namespace process. Elsewhere
    (e.g. macOS, whose shm names are length-capped and never reaped) the
    short PID-only form is kept.
    """
    pid = os.getpid()
    suffix = secrets.token_hex(4)
    if not os.path.isdir(_SHM_DIR):
        return f"{SEGMENT_PREFIX}{pid}-{suffix}"
    return (
        f"{SEGMENT_PREFIX}{pid}-{_node_token()}-"
        f"{_pid_start(pid) or 0}-{suffix}"
    )


def _parse_segment(
    filename: str,
) -> tuple[int, str | None, int | None] | None:
    """``(pid, node_token, start_ticks)`` parsed from a segment filename.

    Names without provenance fields (the short non-reapable form, or
    fabricated test names) parse with ``None`` provenance; names without
    a leading PID are not ours and parse to None.
    """
    if not filename.startswith(SEGMENT_PREFIX):
        return None
    parts = filename[len(SEGMENT_PREFIX):].split("-")
    try:
        pid = int(parts[0])
    except (IndexError, ValueError):
        return None
    if len(parts) >= 4:
        try:
            return pid, parts[1], int(parts[2])
        except ValueError:
            return pid, None, None
    return pid, None, None


def _owner_alive(pid: int, node: str | None, start: int | None) -> bool:
    """Conservative owner liveness for the reaper.

    Unresolvable provenance — no node token, or one minted under another
    boot / PID namespace — means ``os.kill(pid, 0)`` would probe an
    unrelated process, so the owner is reported alive. Within our own
    namespace, a live PID whose start time no longer matches the one
    baked into the name was recycled: the real owner is gone.
    """
    if node is None or node != _node_token():
        return True
    if not _pid_alive(pid):
        return False
    if start:
        current = _pid_start(pid)
        if current is not None and current != start:
            return False
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative default
        return True
    return True


def reap_stale_segments(
    shm_dir: str = _SHM_DIR, pids_alive: Iterable[int] | None = None
) -> list[str]:
    """Unlink segments whose owner process is dead; returns reaped names.

    Only names carrying :data:`SEGMENT_PREFIX` are candidates, and only
    when their provenance proves the owner gone — named under this boot
    and PID namespace, and the PID either no longer exists or was
    recycled by a process with a different start time. A ``kill -9``'d
    driver cannot run its atexit hooks, so the *next* pool (or an
    explicit call) reclaims what it left behind; segments whose owner
    cannot be resolved (foreign namespace or boot, missing provenance)
    are conservatively left alone. ``pids_alive`` overrides all liveness
    checks for tests.
    """
    if not SHM_AVAILABLE or not os.path.isdir(shm_dir):
        return []
    alive = set(pids_alive) if pids_alive is not None else None
    reaped: list[str] = []
    try:
        entries = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - permissions
        return []
    for filename in entries:
        parsed = _parse_segment(filename)
        if parsed is None:
            continue
        pid, node, start = parsed
        if pid == os.getpid():
            continue
        if alive is not None:
            if pid in alive:
                continue
        elif _owner_alive(pid, node, start):
            continue
        try:
            os.unlink(os.path.join(shm_dir, filename))
            reaped.append(filename)
        except OSError:  # pragma: no cover - concurrent reap
            pass
    return reaped
