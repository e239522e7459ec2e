"""In-memory duplex byte channels.

The simulation runs thousands of miner/pool conversations per benchmark,
so transport is an in-memory pair of FIFO byte queues with the same
read/write surface a socket would give the protocol layer.  Determinism
and speed are the point; the framing layer on top is byte-exact Stratum.
"""

from collections import deque
from typing import Callable, Deque, Optional, Tuple


class Channel:
    """One endpoint of a duplex connection.

    An endpoint may register a *receive callback* (servers do): when the
    peer writes, the callback runs synchronously, which gives the
    request/response behaviour of a blocking socket without threads.
    """

    def __init__(self) -> None:
        self._incoming: Deque[bytes] = deque()
        self._peer: Optional["Channel"] = None
        self._closed = False
        self._callback: Optional[Callable[[], None]] = None
        self._in_callback = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def _attach(self, peer: "Channel") -> None:
        self._peer = peer

    def set_receive_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` whenever the peer delivers bytes here."""
        self._callback = callback

    def send(self, data: bytes) -> None:
        """Write bytes to the peer; raises after close."""
        if self._closed:
            raise ConnectionError("channel is closed")
        if self._peer is None:
            raise ConnectionError("channel is not connected")
        if self._peer._closed:
            raise ConnectionResetError("peer closed the connection")
        self.bytes_sent += len(data)
        self._peer._incoming.append(data)
        peer = self._peer
        if peer._callback is not None and not peer._in_callback:
            peer._in_callback = True
            try:
                while peer._incoming:
                    peer._callback()
            finally:
                peer._in_callback = False

    def receive(self) -> Optional[bytes]:
        """Pop the next chunk, or None when nothing is pending."""
        if not self._incoming:
            return None
        chunk = self._incoming.popleft()
        self.bytes_received += len(chunk)
        return chunk

    def close(self) -> None:
        """Close this endpoint; subsequent sends raise."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def peer_closed(self) -> bool:
        return self._peer is not None and self._peer._closed


def make_channel_pair() -> Tuple[Channel, Channel]:
    """Create a connected (client, server) channel pair."""
    a, b = Channel(), Channel()
    a._attach(b)
    b._attach(a)
    return a, b
