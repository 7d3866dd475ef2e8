"""One forked worker process behind a request/response pipe.

Every process this package forks goes through :class:`ForkedWorker`:
the rigorous-solver workers behind :func:`repro.runtime.parallel_map`,
the job executor's disposable per-chunk process and the serving pool's
workers.  What they share lives here, once:

* **fork** — :func:`repro.runtime.sync.check_fork_safety` first, then
  the ``fork`` start method, so the child inherits the parent's
  imported world and objects (a serving worker uses the parent's model
  copy-on-write);
* **ready handshake** — the child runs ``setup()``, which returns the
  message handler, and reports back; an exception raised by ``setup``
  is re-raised by the constructor, and a child that dies or stays
  silent for :data:`READY_TIMEOUT_S` raises :class:`WorkerDied`;
* **child hygiene** — SIGINT is ignored and SIGTERM kills (the parent
  owns shutdown; an inherited drain handler would turn ``terminate``
  into a no-op), every inherited pipe end except the child's own is
  closed, and scipy FFT plus every loaded OpenBLAS are pinned to one
  thread, so N workers never oversubscribe N cores.  Closing the ends
  is what makes EOF mean death both ways: a dead worker's pipe reads
  EOF in the parent, and a SIGKILLed parent's pipes read EOF in every
  worker, which exits;
* **calls** — :meth:`ForkedWorker.call` ships a message with the
  caller's trace context and active trace path, and the child restores
  both around the handler, so spans it opens join the caller's span
  tree.  Pipe EOF or a dead child raises :class:`WorkerDied`; a timeout
  terminates the child and raises the same; a handler exception is
  re-raised in the parent;
* **kill window** — ``busy`` is True while a call is in flight and
  ``pid`` names the child: fault-injection tests slow the child's work
  function before the fork, wait for ``busy``, then SIGKILL ``pid``;
* **close** — a stop message, a join, and escalation to ``terminate``,
  so every worker is reaped.
"""

from __future__ import annotations

import multiprocessing
import signal
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.obs import (
    capture_context, current_trace_path, disable_tracing, enable_tracing,
    trace_enabled, use_context,
)

from .fft import set_fft_workers
from .sync import check_fork_safety

__all__ = ["ForkedWorker", "WorkerDied", "fork_available"]

#: how long a freshly forked child gets to set up and report ready
READY_TIMEOUT_S = 30.0

#: pipe ends this process holds for its workers (or, in a worker, the
#: one end it owns); a freshly forked child closes all but its own
_OPEN_ENDS: set = set()

#: OpenBLAS's thread-count setter under each build's symbol naming
#: (plain, 64-bit integer, and the scipy-openblas wheels numpy/scipy bundle)
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
)


class WorkerDied(RuntimeError):
    """A forked worker exited, was killed, or timed out before answering."""


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (it does not on Windows,
    and ``spawn`` would re-import the world per worker, so callers fall
    back to running in-process instead)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _limit_openblas_threads() -> None:
    """Pin every OpenBLAS this process has loaded to one thread.

    The rigorous solver's lateral step is a BLAS matmul, which OpenBLAS
    threads once a product is large enough (a 128×128 slice is); in
    workers those threads would multiply with the processes.  numpy has
    no API for this, so the libraries are found through
    ``/proc/self/maps`` and their thread count, the exported
    ``blas_cpu_number``, is written directly.  OpenBLAS's own setter is
    the fallback only: in a forked child it first rebuilds the thread
    pool the fork shut down, and the new threads spin for about 0.1 s —
    tens of milliseconds of CPU per fork, which a disposable job-chunk
    process pays every chunk.  Without ``/proc`` or with another BLAS
    nothing changes.  Results do not depend on the count: OpenBLAS
    splits a product's rows and columns across threads, never its sums.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        try:
            ctypes.c_int.in_dll(library, "blas_cpu_number").value = 1
            continue
        except ValueError:
            pass  # not exported by this build
        for name in _OPENBLAS_SETTERS:
            if hasattr(library, name):
                getattr(library, name)(1)
                break


def _follow_tracing(path: str | None) -> None:
    """Match this worker's trace sink to the caller's active path."""
    if path is None:
        if current_trace_path() is not None:
            disable_tracing()
    elif current_trace_path() != path:
        enable_tracing(path, truncate=False)


def _reply(conn, ok: bool, value: Any) -> None:
    try:
        conn.send((ok, value))
    except OSError:
        pass  # the parent is gone; the next recv reads EOF
    except Exception as error:  # noqa: BLE001 - a value pickle refuses
        conn.send((False, RuntimeError(
            f"{value!r} cannot be sent back to the parent: {error!r}")))


def _child_main(setup: Callable[[], Callable], conn) -> None:
    """Forked entry point: clean up the inheritance, set up, serve."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # the forking thread's open spans are not this worker's parents; the
    # context each call carries is (tracing resumes on the first call)
    disable_tracing()
    for end in list(_OPEN_ENDS):
        if end is not conn:
            end.close()
    _OPEN_ENDS.clear()
    _OPEN_ENDS.add(conn)
    set_fft_workers(1)
    _limit_openblas_threads()
    try:
        handler = setup()
    except Exception as error:  # noqa: BLE001 - re-raised by the constructor
        _reply(conn, False, error)
        return
    _reply(conn, True, None)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # the parent is gone
        if message is None:
            return
        payload, ctx, trace_path = message
        _follow_tracing(trace_path)
        try:
            with use_context(ctx):
                result = handler(payload)
        except Exception as error:  # noqa: BLE001 - re-raised by call()
            _reply(conn, False, error)
        else:
            _reply(conn, True, result)


class ForkedWorker:
    """A forked child answering :meth:`call` messages with ``setup()``'s
    handler, until :meth:`close`."""

    def __init__(self, setup: Callable[[], Callable[[Any], Any]],
                 name: str = "repro-worker"):
        check_fork_safety()
        context = multiprocessing.get_context("fork")
        self.name = name
        #: True while a call is in flight: the kill-window hook for tests
        self.busy = False
        self._conn, child_end = context.Pipe()
        _OPEN_ENDS.update((self._conn, child_end))
        self._process = context.Process(target=_child_main, args=(setup, child_end),
                                        name=name, daemon=True)
        try:
            self._process.start()
        except BaseException:
            self._conn.close()
            _OPEN_ENDS.discard(self._conn)
            raise
        finally:
            child_end.close()
            _OPEN_ENDS.discard(child_end)
        try:
            self._receive(READY_TIMEOUT_S, "starting")
        except BaseException:
            self.close(timeout_s=0.0)
            raise

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def alive(self) -> bool:
        return self._process.is_alive()

    def call(self, message: Any, timeout_s: float | None = None) -> Any:
        """The handler's answer to ``message``; raises :class:`WorkerDied`
        if the child dies or does not answer within ``timeout_s``."""
        self.busy = True
        try:
            try:
                trace_path = current_trace_path() if trace_enabled() else None
                self._conn.send((message, capture_context(), trace_path))
            except OSError as error:
                raise WorkerDied(f"{self.name} (pid {self.pid}) is gone") from error
            return self._receive(timeout_s, "answering")
        finally:
            self.busy = False

    def _receive(self, timeout_s: float | None, doing: str) -> Any:
        ready = wait([self._conn, self._process.sentinel], timeout_s)
        if self._conn in ready:
            try:
                ok, value = self._conn.recv()
            except (EOFError, OSError) as error:
                raise WorkerDied(
                    f"{self.name} (pid {self.pid}) died {doing}") from error
            if not ok:
                raise value
            return value
        if not ready:
            self.terminate()
            raise WorkerDied(f"{self.name} (pid {self.pid}) did not finish "
                             f"{doing} within {timeout_s}s")
        raise WorkerDied(f"{self.name} (pid {self.pid}) died {doing}")

    def terminate(self) -> None:
        """SIGTERM the child (safe from any thread, even mid-call)."""
        self._process.terminate()

    def close(self, timeout_s: float = 10.0) -> None:
        """Ask the child to stop, then reap it (terminating after
        ``timeout_s``).  Idempotent."""
        if not self._conn.closed:
            try:
                self._conn.send(None)
            except OSError:
                pass
            self._conn.close()
            _OPEN_ENDS.discard(self._conn)
        self._process.join(timeout_s)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
