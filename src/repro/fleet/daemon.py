"""The daemon skeleton shared by the fleet worker and the sweep service.

Both daemons (``repro worker`` and ``repro serve``) and both of their
clients speak the same connection dialogue over the
:mod:`~repro.fleet.protocol` framing, so it lives here once:

* on accept the server sends ``hello`` (protocol version, pid, and the
  fields the daemon supplies: capabilities, capacity, extra keys);
* a secured server (``secret`` set) puts an HMAC challenge in the hello
  and the first client frame must be its ``auth`` answer — a bad or
  missing digest gets an error frame and the connection is dropped
  before any daemon state changes; a good one gets ``auth_ok``;
* then the server loops, dispatching each request on its ``type``
  through the daemon's handler table until the client says ``bye`` or
  hangs up.

One error policy covers both daemons: an unknown ``type`` or an
exception raised while computing a reply is answered with an ``error``
frame and the connection stays open for the next request; a transport
failure (a send or recv that fails, an oversized or truncated frame)
ends that connection only.

:class:`DaemonServer` is the server half, :func:`serve_until_stopped`
the blocking ``repro worker``/``repro serve`` entry point, and
:class:`DaemonLink` the client half — one persistent connection that
owns connect, hello, version check, the HMAC answer, request, drop and
close.  Each daemon and client keeps only its own verbs.
"""

from __future__ import annotations

import os
import signal
import socket
import socketserver
import threading
import traceback
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.errors import ReproError
from repro.fleet import protocol

#: A reply: a message dict, or a frame the protocol already encoded
#: (``job_result`` splices its archived report into one).
Reply = Union[Dict[str, Any], bytes]

#: A request handler: ``(connection, message) -> reply``.  A handler that
#: streams its own frames (``job_watch``) sends them through
#: :meth:`Connection.send` and returns None.
Handler = Callable[["Connection", Dict[str, Any]], Optional[Reply]]

#: Seconds a client waits for a daemon to accept a connection.
CONNECT_TIMEOUT_S = 5.0


def parse_address(text: str, default_port: int = 0) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``HOST``) into an address tuple."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text or "127.0.0.1", default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise protocol.ProtocolError(
            f"invalid worker address {text!r}; expected HOST:PORT"
        ) from None


class _Disconnected(Exception):
    """The peer's transport failed mid-reply; end this connection."""


class Connection(socketserver.BaseRequestHandler):
    """One client connection: hello (+auth), then the request loop."""

    server: "DaemonServer"

    def setup(self) -> None:
        # Requests are latency-sensitive small frames; don't Nagle them.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, message: Reply) -> None:
        """Send one frame; a failed send ends this connection."""
        try:
            if isinstance(message, bytes):
                self.request.sendall(message)
            else:
                protocol.send_message(self.request, message)
        except OSError as exc:
            raise _Disconnected(str(exc)) from exc

    def handle(self) -> None:
        try:
            if self._handshake():
                self._serve_requests()
        except (_Disconnected, protocol.ProtocolError, OSError):
            pass  # client vanished or spoke garbage; drop the line

    def _handshake(self) -> bool:
        server = self.server
        nonce = protocol.make_nonce() if server.secret else None
        fields = dict(server.hello_fields())
        hello = protocol.hello_message(
            fields.pop("capabilities"),
            os.getpid(),
            capacity=fields.pop("capacity", 1),
            nonce=nonce,
        )
        hello.update(fields)
        self.send(hello)
        if not server.secret:
            return True
        # Challenge-response before anything else: no daemon state is
        # touched until the digest verifies.
        answer = protocol.recv_message(self.request)
        if answer is None or not protocol.verify_auth(
            server.secret, nonce, answer
        ):
            self.send(
                protocol.error_message(
                    protocol.ProtocolError(
                        "authentication failed: bad or missing shared secret"
                    )
                )
            )
            return False
        self.send({"type": "auth_ok"})
        return True

    def _serve_requests(self) -> None:
        handlers = self.server.handlers()
        while True:
            message = protocol.recv_message(self.request)
            if message is None or message.get("type") == "bye":
                return
            kind = message.get("type")
            try:
                if kind == "ping":
                    reply = {"type": "pong"}
                elif kind in handlers:
                    reply = handlers[kind](self, message)
                else:
                    raise protocol.ProtocolError(
                        f"unknown message type {kind!r}"
                    )
            except _Disconnected:
                raise
            except Exception as exc:  # noqa: BLE001 - one request's fault
                # A bad request (unknown job, malformed plan or batch...)
                # costs that request, not the client's connection.  An
                # error outside the repro taxonomy is a gap in the
                # daemon's validation: keep its traceback on stderr.
                if not isinstance(exc, ReproError):
                    traceback.print_exc()
                reply = protocol.error_message(exc)
            if reply is not None:
                self.send(reply)


class DaemonServer(socketserver.ThreadingTCPServer):
    """A threading TCP server speaking the shared daemon dialogue.

    Subclasses supply :meth:`hello_fields` and :meth:`handlers`; this
    base owns the socket options, the hello, the challenge-response
    (when ``secret`` is set), the request loop and its error policy.
    ``ping`` is answered here for every daemon.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], secret: Optional[str] = None
    ) -> None:
        super().__init__(address, Connection)
        self.secret = secret or None

    def hello_fields(self) -> Dict[str, Any]:
        """The daemon's hello: ``capabilities`` (required), ``capacity``
        (default 1) and any extra keys, which ride after the standard
        ones."""
        raise NotImplementedError

    def handlers(self) -> Dict[str, Handler]:
        """The daemon's request table, keyed by message ``type``."""
        raise NotImplementedError

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def install_shutdown_signals(server) -> "threading.Event":
    """Point SIGTERM/SIGINT at a graceful ``server.shutdown()``.

    Returns the event set when a signal arrived.  ``shutdown()`` blocks
    until ``serve_forever`` exits — and ``serve_forever`` runs on the
    very main thread the handler interrupts — so the handler hands the
    call to a helper thread instead of deadlocking on itself.  No-op
    (returns an unset event) off the main thread, where ``signal.signal``
    is unavailable; embedded servers are closed explicitly instead.
    """
    stop = threading.Event()

    def _request_stop(signum, frame):  # pragma: no cover - signal path
        if not stop.is_set():
            stop.set()
            threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_stop)
        except ValueError:
            break  # not the main thread
    return stop


def serve_until_stopped(
    server: DaemonServer, banner: str, farewell: str, quiet: bool = False
) -> int:
    """Serve until SIGTERM/SIGINT, then ``server.close()``; returns 0.

    Unless ``quiet``, prints ``banner`` (which must say ``listening on
    HOST:PORT``: the spawners parse it) before serving and ``farewell``
    once the close has drained.
    """
    if not quiet:
        print(banner, flush=True)
    install_shutdown_signals(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    if not quiet:
        print(farewell, flush=True)
    return 0


class DaemonLink:
    """One persistent client connection to a daemon.

    Connects lazily, checks the hello's protocol version and answers its
    HMAC challenge when it carries one (an unsecured daemon is accepted
    whatever ``secret`` says).  Any handshake failure closes the socket
    before it propagates.  Transport failures drop the connection, so
    the next request reconnects.  ``peer`` names the daemon in error
    messages ("worker", "service").

    :meth:`request` is one locked round trip; callers that stream
    several frames per request hold :attr:`lock` and use :meth:`send`
    and :meth:`recv` directly.
    """

    def __init__(
        self,
        address: str,
        peer: str = "worker",
        secret: Optional[str] = None,
        timeout: Optional[float] = None,
        default_port: int = 0,
    ) -> None:
        self.address = address
        self.host, self.port = parse_address(address, default_port)
        self.peer = peer
        self.secret = secret or None
        self.timeout = timeout
        self.lock = threading.Lock()
        self.hello: Optional[Dict[str, Any]] = None
        self._sock: Optional[socket.socket] = None

    def _fail(self, detail: str) -> protocol.ProtocolError:
        return protocol.ProtocolError(f"{self.peer} {self.address} {detail}")

    def connect(self) -> Dict[str, Any]:
        """Connect and handshake (if not yet connected); the hello."""
        if self._sock is not None:
            return self.hello
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT_S
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.timeout)
            hello = protocol.recv_message(sock)
            if not hello or hello.get("type") != "hello":
                raise self._fail("did not say hello")
            if hello.get("version") != protocol.PROTOCOL_VERSION:
                raise self._fail(
                    f"speaks protocol version {hello.get('version')}, "
                    f"client speaks {protocol.PROTOCOL_VERSION}"
                )
            challenge = hello.get("auth")
            if isinstance(challenge, dict) and isinstance(
                challenge.get("nonce"), str
            ):
                nonce = challenge["nonce"]
                if not self.secret:
                    raise self._fail(
                        "requires a shared secret; set fleet.secret "
                        "(or REPRO_FLEET_SECRET)"
                    )
                protocol.send_message(
                    sock, protocol.auth_message(self.secret, nonce)
                )
                answer = protocol.recv_message(sock)
                if not answer or answer.get("type") != "auth_ok":
                    raise self._fail("rejected the shared secret")
        except BaseException:
            sock.close()
            raise
        self.hello = hello
        self._sock = sock
        return hello

    def send(self, message: Dict[str, Any]) -> None:
        """Send one frame (connecting if needed); drops on failure."""
        self.connect()
        try:
            protocol.send_message(self._sock, message)
        except (OSError, protocol.ProtocolError):
            self.drop()
            raise

    def recv(self) -> Dict[str, Any]:
        """Receive one frame; drops on failure or hang-up."""
        if self._sock is None:
            raise self._fail("connection was dropped")
        try:
            response = protocol.recv_message(self._sock)
        except (OSError, protocol.ProtocolError):
            self.drop()
            raise
        if response is None:
            self.drop()
            raise self._fail("closed the connection mid-request")
        return response

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip (connecting if needed)."""
        with self.lock:
            self.send(message)
            return self.recv()

    def drop(self) -> None:
        """Forget the connection (the next request reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self.hello = None

    def close(self) -> None:
        """Say ``bye`` (best effort) and drop the connection."""
        with self.lock:
            if self._sock is not None:
                try:
                    protocol.send_message(self._sock, {"type": "bye"})
                except (OSError, protocol.ProtocolError):
                    pass
            self.drop()

    def __enter__(self) -> "DaemonLink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
