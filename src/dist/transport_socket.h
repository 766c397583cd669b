// Real transport: Unix-domain stream sockets between the supervisor and N
// forked worker processes (DESIGN.md §15).
//
// The supervisor side owns a named listening socket plus one channel per
// worker id. Channels carry the CRC-32 frames of transport_frame.h; RecvAny
// is the single receive point and absorbs two classes of event internally:
//
//   * kHeartbeat frames — refresh the per-worker liveness clock
//     (SecondsSinceContact) and are never surfaced to the caller. Death is
//     declared by the supervisor ONLY when that clock lapses past
//     RetryPolicy::DetectionSeconds(); a mere EOF is not death, because a
//     worker hitting a transient socket error reconnects with backoff and
//     re-identifies itself with a fresh kHello.
//   * New connections on the listening socket — accepted, identified by their
//     kHello, and bound (or re-bound, for a reconnect) to the worker's slot.
//
// A channel that yields a malformed frame (bad magic / bad CRC / truncation)
// or an I/O error is closed immediately and loudly; the worker's
// reconnect-with-backoff path is what restores it.
//
// The worker side uses ConnectWithBackoff + the free functions of
// transport_frame.h directly (src/dist/supervisor_worker.cc).
#ifndef SRC_DIST_TRANSPORT_SOCKET_H_
#define SRC_DIST_TRANSPORT_SOCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dist/transport_frame.h"
#include "src/fault/retry.h"

namespace flexgraph {

class SocketTransport final {
 public:
  SocketTransport() = default;
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // ---- Supervisor side ----

  // Creates the named endpoint (an abstract-less filesystem socket under
  // /tmp, unlinked on CloseAll/destruction).
  void Listen();
  const std::string& endpoint() const { return endpoint_; }

  // Accepts one pending connection and reads its kHello; returns the worker
  // id that introduced itself. Throws CheckError on timeout — startup is the
  // one place a silent wait would mask a fork that never came up.
  uint32_t AcceptWorker(double timeout_seconds);

  FrameStatus SendTo(uint32_t worker, FrameType type, const std::string& payload);
  // For a broadcast: `crc` is the payload's Crc32, computed once for all
  // recipients.
  FrameStatus SendTo(uint32_t worker, FrameType type, const std::string& payload,
                     uint32_t crc);

  // Next non-heartbeat frame from any worker (header comment). kTimeout after
  // `timeout_seconds` without one; heartbeats/reconnects do not reset the
  // caller's deadline, only the liveness clocks.
  FrameStatus RecvAny(double timeout_seconds, uint32_t* from, Frame* frame);

  // Seconds since the last frame (any kind) arrived from `worker`. Reads the
  // clock refreshed by RecvAny/AcceptWorker; a worker that was never adopted
  // reports a huge value.
  double SecondsSinceContact(uint32_t worker) const;

  bool connected(uint32_t worker) const;
  void CloseWorker(uint32_t worker);
  void CloseAll();

  // ---- Worker side ----

  // Connects to `endpoint`, retrying per the policy's exponential backoff on
  // transient failure (ECONNREFUSED while the listener races up, or a
  // reconnect window). Returns the fd, or -1 once attempts are exhausted.
  static int ConnectWithBackoff(const std::string& endpoint, const RetryPolicy& retry);

 private:
  struct Channel {
    int fd = -1;
    int64_t last_contact_ns = 0;  // obs::MonotonicNowNs of the last frame
  };

  Channel& ChannelFor(uint32_t worker);
  // Accepts + identifies one pending connection; returns the worker id.
  uint32_t AdoptPending(double timeout_seconds);

  std::string endpoint_;
  int listen_fd_ = -1;
  std::vector<Channel> channels_;
};

}  // namespace flexgraph

#endif  // SRC_DIST_TRANSPORT_SOCKET_H_
