"""Kernel tests: sockets, pipes, ptys, flow control, framing."""

import gc

import pytest

from repro.cluster import build_cluster
from repro.errors import SyscallError
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import connect_retry, recv_frame, send_frame


@pytest.fixture()
def world():
    return build_cluster(n_nodes=3, seed=3)


def run(world):
    world.engine.run()
    assert not world.scheduler.failures, world.scheduler.failures


def test_tcp_client_server_roundtrip(world):
    log = []

    def server(sys, argv):
        lfd = yield from sys.socket()
        addr = yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        chunk = yield from sys.recv(cfd)
        log.append(("server got", chunk.data))
        yield from sys.send(cfd, 5, data=b"reply")

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 5000)
        yield from sys.send(fd, 5, data=b"hello")
        chunk = yield from sys.recv(fd)
        log.append(("client got", chunk.data))

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    run(world)
    assert ("server got", b"hello") in log
    assert ("client got", b"reply") in log


def test_connect_to_nothing_refused(world):
    errs = []

    def client(sys, argv):
        fd = yield from sys.socket()
        try:
            yield from connect_retry(sys, fd, "node00", 9999)
        except SyscallError as e:
            errs.append(e.errno)

    world.register_program("c", client)
    world.spawn_process("node01", "c")
    run(world)
    assert errs == ["ECONNREFUSED"]


def test_flow_control_blocks_fast_sender(world):
    """Sender of 1 MB into a 64 KB buffer must wait for the reader."""
    times = {}

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        yield from sys.sleep(10.0)  # slow reader
        got = 0
        while got < 64 * 1024 * 16:
            chunk = yield from sys.recv(cfd)
            got += chunk.nbytes
        times["read_done"] = yield from sys.time()

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 5000)
        for _ in range(16):
            yield from sys.send(fd, 64 * 1024)
        times["send_done"] = yield from sys.time()

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    run(world)
    # sender cannot finish before the reader starts draining at t=10
    assert times["send_done"] > 9.0


def test_eof_on_close(world):
    log = []

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        while True:
            chunk = yield from sys.recv(cfd)
            if chunk is None:
                log.append("eof")
                break
            log.append(chunk.data)

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 5000)
        yield from sys.send(fd, 1, data=b"x")
        yield from sys.close(fd)

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    run(world)
    assert log == [b"x", "eof"]


def test_loopback_connection_same_node(world):
    log = []

    def main(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 7000)
        yield from sys.listen(lfd)

        def client_thread(sys2):
            fd = yield from sys2.socket()
            yield from connect_retry(sys2, fd, "node00", 7000)
            yield from sys2.send(fd, 2, data=b"lo")

        tid = yield from sys.thread_create(client_thread)
        cfd = yield from sys.accept(lfd)
        chunk = yield from sys.recv(cfd)
        log.append(chunk.data)
        yield from sys.thread_join(tid)

    world.register_program("lo", main)
    world.spawn_process("node00", "lo")
    run(world)
    assert log == [b"lo"]


def test_unix_domain_socket_by_path(world):
    log = []

    def server(sys, argv):
        lfd = yield from sys.socket("unix")
        yield from sys.bind(lfd, path="/tmp/app.sock")
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        chunk = yield from sys.recv(cfd)
        log.append(chunk.data)

    def client(sys, argv):
        yield from sys.sleep(0.1)
        fd = yield from sys.socket("unix")
        yield from connect_retry(sys, fd, "node00", path="/tmp/app.sock")
        yield from sys.send(fd, 3, data=b"uds")

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node00", "client")
    run(world)
    assert log == [b"uds"]


def test_pipe_directionality(world):
    errs = []
    log = []

    def main(sys, argv):
        r, w = yield from sys.pipe()
        try:
            yield from sys.send(r, 1, data=b"!")
        except SyscallError as e:
            errs.append(e.errno)
        yield from sys.send(w, 2, data=b"ok")
        chunk = yield from sys.recv(r)
        log.append(chunk.data)

    world.register_program("p", main)
    world.spawn_process("node00", "p")
    run(world)
    assert errs == ["EBADF"]
    assert log == [b"ok"]


def test_socketpair_bidirectional(world):
    log = []

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        yield from sys.send(a, 1, data=b"1")
        yield from sys.send(b, 1, data=b"2")
        log.append((yield from sys.recv(b)).data)
        log.append((yield from sys.recv(a)).data)

    world.register_program("sp", main)
    world.spawn_process("node00", "sp")
    run(world)
    assert log == [b"1", b"2"]


def test_framing_roundtrip_large_message(world):
    got = []

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        asm = FrameAssembler()
        payload, size = yield from recv_frame(sys, cfd, asm)
        got.append((payload, size))

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 5000)
        yield from send_frame(sys, fd, {"msg": "big"}, 1_000_000)

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    run(world)
    assert got == [({"msg": "big"}, 1_000_000)]


def test_transfer_time_scales_with_size(world):
    times = {}

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        asm = FrameAssembler()
        yield from recv_frame(sys, cfd, asm)
        times["done"] = yield from sys.time()

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 5000)
        yield from send_frame(sys, fd, None, 125_000_000)  # 1s at GigE

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    run(world)
    assert 1.0 <= times["done"] <= 1.6


def test_fcntl_setown_election_semantics(world):
    """Two processes sharing an FD: last F_SETOWN wins for both."""
    results = {}

    def child(sys):
        yield from sys.fcntl(10, "F_SETOWN", (yield from sys.getpid()))
        yield from sys.sleep(0.5)
        results["child_sees"] = yield from sys.fcntl(10, "F_GETOWN")
        yield from sys.exit(0)

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        yield from sys.dup2(a, 10)
        pid = yield from sys.fork(child)
        yield from sys.sleep(0.1)  # child sets first...
        mypid = yield from sys.getpid()
        yield from sys.fcntl(10, "F_SETOWN", mypid)  # ...parent overwrites
        yield from sys.waitpid(pid)
        results["parent_sees"] = yield from sys.fcntl(10, "F_GETOWN")
        results["parent_pid"] = mypid

    world.register_program("elect", main)
    world.spawn_process("node00", "elect")
    run(world)
    assert results["child_sees"] == results["parent_pid"]
    assert results["parent_sees"] == results["parent_pid"]


def test_setsockopt_adjusts_buffer(world):
    def main(sys, argv):
        a, b = yield from sys.socketpair()
        yield from sys.setsockopt(b, "SO_RCVBUF", 128)
        yield from sys.send(a, 100, data=b"fits")

    world.register_program("so", main)
    world.spawn_process("node00", "so")
    run(world)


def test_pty_roundtrip_and_termios(world):
    log = {}

    def main(sys, argv):
        m, s = yield from sys.openpty()
        log["name"] = yield from sys.ptsname(s)
        yield from sys.tcsetattr(s, {"echo": 0, "rows": 50})
        log["attrs"] = yield from sys.tcgetattr(m)
        yield from sys.setsid()
        yield from sys.setctty(s)
        yield from sys.send(m, 3, data=b"cmd")
        log["slave_got"] = (yield from sys.recv(s)).data

    world.register_program("term", main)
    proc = world.spawn_process("node00", "term")
    run(world)
    assert log["name"].startswith("/dev/pts/")
    assert log["attrs"]["echo"] == 0 and log["attrs"]["rows"] == 50
    assert log["slave_got"] == b"cmd"
    assert proc.ctty is not None
    assert proc.ctty.session_sid == proc.sid


def test_proc_maps_renders_regions(world):
    out = {}

    def main(sys, argv):
        yield from sys.mmap(1 << 20, "numeric", kind="anon")
        out["maps"] = yield from sys.proc_maps()

    world.register_program("m", main)
    world.spawn_process("node00", "m")
    run(world)
    assert "[heap]" in out["maps"] or "rw-p" in out["maps"]
    assert len(out["maps"].splitlines()) >= 4  # spec regions + mmap


def test_shared_memory_attaches_same_region(world):
    results = {}

    def child(sys):
        rid = yield from sys.mmap(4096, "zero", shared=True, path="/tmp/shm1")
        results["child_rid"] = rid
        yield from sys.exit(0)

    def main(sys, argv):
        rid = yield from sys.mmap(4096, "zero", shared=True, path="/tmp/shm1")
        results["parent_rid"] = rid
        pid = yield from sys.fork(child)
        yield from sys.waitpid(pid)

    world.register_program("shm", main)
    world.spawn_process("node00", "shm")
    run(world)
    assert results["parent_rid"] == results["child_rid"]


def test_file_write_read_roundtrip_with_payload(world):
    out = {}

    def main(sys, argv):
        fd = yield from sys.open("/data/out.bin", "w")
        yield from sys.write(fd, 1000, payload={"answer": 42})
        yield from sys.close(fd)
        fd = yield from sys.open("/data/out.bin", "r")
        n, payload = yield from sys.read(fd, 1 << 30)
        out["n"] = n
        out["payload"] = payload
        yield from sys.close(fd)
        out["stat"] = yield from sys.stat("/data/out.bin")

    world.register_program("f", main)
    world.spawn_process("node00", "f")
    run(world)
    assert out["n"] == 1000
    assert out["payload"] == {"answer": 42}
    assert out["stat"]["size"] == 1000


def test_connection_lifecycle_leaves_no_cyclic_garbage(world):
    """connect -> accept -> close both ends frees everything by refcount.

    A self-naming accept closure and the closed pair's peer <-> peer
    links used to leave every finished connection to the cyclic
    collector.
    """
    done = []

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        while True:
            cfd = yield from sys.accept(lfd)
            while (yield from sys.recv(cfd)) is not None:
                pass
            yield from sys.close(cfd)
            done.append(cfd)

    def client(sys, argv):
        while True:
            fd = yield from sys.socket()
            yield from connect_retry(sys, fd, "node00", 5000)
            yield from sys.send(fd, 100, data=b"x")
            yield from sys.close(fd)
            yield from sys.sleep(1.0)

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    # warm up: listener, both processes and the first connections exist
    world.engine.run_until(lambda: len(done) >= 2)
    was_enabled = gc.isenabled()
    # until quiescent: earlier worlds' generators finalized by one pass
    # can hold their cycles alive until the next
    while gc.collect():
        pass
    gc.disable()
    try:
        world.engine.run_until(lambda: len(done) >= 5)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert not world.scheduler.failures, world.scheduler.failures
