"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import socket
import struct
import subprocess
import threading

import networkx as nx
import pytest

from repro.graphs import generators


class FlapProxy:
    """Deterministic connection-flapping TCP proxy (the chaos harness).

    Sits between a coordinator and a socket worker: listens on an
    ephemeral 127.0.0.1 port, dials *upstream* per accepted connection,
    and forwards whole length-prefixed frames.  The k-th accepted
    connection is severed abruptly — both directions at once, no FIN
    handshake niceties — after forwarding ``plan[k]``
    coordinator→worker task frames; connections beyond the plan (and
    ``None`` entries) pass through untouched.  Killing on a *frame
    count* rather than a timer is what makes the chaos deterministic:
    the same plan severs the same connection at the same protocol point
    every run, regardless of machine speed.

    Only coordinator→worker frames count toward a budget (the hello and
    all replies travel the other way), so ``plan[k] = N`` means "this
    connection dies with its N-th task frame delivered to the worker
    but its reply undeliverable" — the exact mid-window loss the
    requeue path must absorb.
    """

    def __init__(self, upstream, plan=()):
        self._upstream = upstream
        self._plan = list(plan)
        self.connections = 0
        self.kills = 0
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._socks = []
        self._threads = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.25)
        host, port = self._listener.getsockname()[:2]
        self.address = f"{host}:{port}"
        accepter = threading.Thread(target=self._accept_loop,
                                    name="flap-proxy-accept", daemon=True)
        self._threads.append(accepter)
        accepter.start()

    def _accept_loop(self):
        while not self._closing.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                budget = (self._plan[self.connections]
                          if self.connections < len(self._plan) else None)
                self.connections += 1
            try:
                upstream = socket.create_connection(self._upstream,
                                                    timeout=10.0)
            except OSError:
                client.close()
                continue
            for sock in (client, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pumps = [
                threading.Thread(target=self._pump_frames,
                                 args=(client, upstream, budget),
                                 name="flap-proxy-frames", daemon=True),
                threading.Thread(target=self._pump_bytes,
                                 args=(upstream, client),
                                 name="flap-proxy-bytes", daemon=True),
            ]
            with self._lock:
                self._socks += [client, upstream]
                self._threads += pumps
            for pump in pumps:
                pump.start()

    @staticmethod
    def _sever(*socks):
        for sock in socks:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()

    def _pump_frames(self, client, upstream, budget):
        """Coordinator→worker: forward whole frames, kill at the budget."""
        from repro.experiments.worker import _read_exactly

        reader = client.makefile("rb")
        forwarded = 0
        try:
            while True:
                header = _read_exactly(reader, 4)
                if header is None:
                    return
                (length,) = struct.unpack(">I", header)
                payload = _read_exactly(reader, length)
                if payload is None:
                    return
                upstream.sendall(header + payload)
                forwarded += 1
                if budget is not None and forwarded >= budget:
                    with self._lock:
                        self.kills += 1
                    return
        except OSError:
            pass
        finally:
            self._sever(client, upstream)

    def _pump_bytes(self, upstream, client):
        """Worker→coordinator: raw byte pump (replies keep frame shape)."""
        try:
            while True:
                chunk = upstream.recv(65536)
                if not chunk:
                    return
                client.sendall(chunk)
        except OSError:
            pass
        finally:
            self._sever(client, upstream)

    def close(self):
        self._closing.set()
        with contextlib.suppress(OSError):
            self._listener.close()
        with self._lock:
            socks = list(self._socks)
            threads = list(self._threads)
        self._sever(*socks)
        for thread in threads:
            thread.join(timeout=5.0)


@pytest.fixture
def flap_proxy():
    """Factory building :class:`FlapProxy` instances, closed on teardown.

    ``proxy = flap_proxy("127.0.0.1:PORT", plan=[2, 3])`` severs the
    first accepted connection after 2 task frames and the second after
    3; point the coordinator at ``proxy.address`` instead of the worker.
    """
    proxies = []

    def factory(upstream_address, plan=()):
        host, _, port = upstream_address.rpartition(":")
        proxy = FlapProxy((host, int(port)), plan=plan)
        proxies.append(proxy)
        return proxy

    yield factory
    for proxy in proxies:
        proxy.close()


def stop_workers(processes, timeout=10.0):
    """Stop spawned workers the way an operator would, then check for leaks.

    SIGTERM to all first: it takes each worker's orderly shutdown path,
    which unlinks every shared-memory graph segment it owns; SIGKILL only
    for a worker that does not finish within *timeout*.  Workers that
    tests killed on purpose never ran that path, so their orphans are
    reaped (``reap_stale_segments`` only touches segments of dead
    owners).  Afterwards no ``repro-csr-<pid>-*`` segment may remain for
    any of *processes*.
    """
    from repro.experiments import shm_cache

    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    shm_cache.reap_stale_segments()
    prefixes = tuple(f"{shm_cache.SEGMENT_PREFIX}-{process.pid}-"
                     for process in processes)
    leaked = [name for name in shm_cache.active_segments()
              if name.startswith(prefixes)]
    assert not leaked, f"spawned workers leaked shared memory: {leaked}"


@pytest.fixture(scope="session")
def worker_stopper():
    """:func:`stop_workers`, for fixtures that spawn workers themselves."""
    return stop_workers


@pytest.fixture(scope="session")
def spawn_socket_worker():
    """Factory spawning one TCP sweep worker on an ephemeral port.

    Calling the factory returns ``(Popen, "127.0.0.1:PORT")`` once the
    worker announced its listening address; *extra_env* lets the
    crash-recovery suite arm fault-injection markers in the worker's
    environment, and *slots*/*max_connections* pass straight through to
    ``repro-mis worker serve``.  Every spawned worker is stopped at
    session teardown by :func:`stop_workers`.
    """
    from repro.experiments.worker import spawn_local_worker

    spawned = []

    def spawn(extra_env=None, slots=1, max_connections=None,
              start_method=None):
        process, address = spawn_local_worker(
            extra_env, slots=slots, max_connections=max_connections,
            start_method=start_method)
        spawned.append(process)
        return process, address

    yield spawn
    stop_workers(spawned)


@pytest.fixture(scope="session")
def socket_workers(spawn_socket_worker):
    """Two live, healthy socket workers: ``"127.0.0.1:P1,127.0.0.1:P2"``.

    Session-scoped and shared by the equivalence matrix — socket workers
    are built to serve any number of sweeps.  Tests that *kill* workers
    must spawn their own via ``spawn_socket_worker`` instead.
    """
    return ",".join(spawn_socket_worker()[1] for _ in range(2))


@pytest.fixture(scope="session")
def multislot_socket_worker(spawn_socket_worker):
    """One worker process serving two slots: ``"127.0.0.1:PORT*2"``.

    The ``*2`` multiplier makes the coordinator dial both slots of the
    single process, exercising the shared-memory graph-cache path the
    equivalence matrix pins against serial.  Session-scoped for the same
    reason as ``socket_workers``; tests that kill connections or the
    process must spawn their own.
    """
    _, address = spawn_socket_worker(slots=2)
    return f"{address}*2"


@pytest.fixture
def small_gnp():
    """A fixed, moderately dense random graph."""
    return generators.gnp_graph(40, p=0.15, seed=7)


@pytest.fixture
def sparse_gnp():
    """A fixed sparse random graph (may be disconnected)."""
    return generators.gnp_graph(60, expected_degree=3.0, seed=11)


@pytest.fixture
def path_graph():
    return generators.path_graph(17)


@pytest.fixture
def cycle_graph():
    return generators.cycle_graph(12)


@pytest.fixture
def clique():
    return generators.complete_graph(9)


@pytest.fixture
def star():
    return generators.star_graph(10)


@pytest.fixture
def grid():
    return generators.grid_graph(5, 5)


@pytest.fixture
def tree_graph():
    return generators.random_tree(25, seed=3)


@pytest.fixture
def disconnected_graph():
    """Three components: a path, a cycle and an isolated node."""
    graph = nx.disjoint_union(generators.path_graph(6), generators.cycle_graph(5))
    graph = nx.disjoint_union(graph, generators.empty_graph(1))
    return nx.convert_node_labels_to_integers(graph)


@pytest.fixture(params=["path", "cycle", "clique", "star", "gnp", "tree"])
def any_small_graph(request):
    """Parametrised fixture covering several small topologies."""
    builders = {
        "path": lambda: generators.path_graph(11),
        "cycle": lambda: generators.cycle_graph(10),
        "clique": lambda: generators.complete_graph(7),
        "star": lambda: generators.star_graph(9),
        "gnp": lambda: generators.gnp_graph(24, p=0.2, seed=5),
        "tree": lambda: generators.random_tree(15, seed=9),
    }
    return builders[request.param]()
