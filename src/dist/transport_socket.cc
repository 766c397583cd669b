#include "src/dist/transport_socket.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace flexgraph {

namespace {

std::string MakeEndpointPath() {
  // Unique per (process, instance): tests create several clusters in one
  // process and stale paths from a crashed run must never collide.
  static std::atomic<uint64_t> counter{0};
  return "/tmp/flexgraph-" + std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

void SleepSeconds(double seconds) {
  if (seconds <= 0) {
    return;
  }
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

SocketTransport::~SocketTransport() { CloseAll(); }

void SocketTransport::Listen() {
  FLEX_CHECK_MSG(listen_fd_ < 0, "Listen called twice");
  endpoint_ = MakeEndpointPath();
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FLEX_CHECK_MSG(listen_fd_ >= 0, "socket() failed: " + std::string(std::strerror(errno)));
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  FLEX_CHECK_LT(endpoint_.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, endpoint_.c_str(), endpoint_.size() + 1);
  ::unlink(endpoint_.c_str());
  FLEX_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind(" + endpoint_ + ") failed: " + std::string(std::strerror(errno)));
  FLEX_CHECK_MSG(::listen(listen_fd_, 64) == 0,
                 "listen failed: " + std::string(std::strerror(errno)));
}

SocketTransport::Channel& SocketTransport::ChannelFor(uint32_t worker) {
  if (worker >= channels_.size()) {
    channels_.resize(worker + 1);
  }
  return channels_[worker];
}

uint32_t SocketTransport::AdoptPending(double timeout_seconds) {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  FLEX_CHECK_MSG(fd >= 0, "accept failed: " + std::string(std::strerror(errno)));
  Frame hello;
  const FrameStatus status = ReadFrame(fd, &hello, timeout_seconds);
  if (status != FrameStatus::kOk || hello.type != FrameType::kHello) {
    ::close(fd);
    FLEX_CHECK_MSG(false, std::string("connection did not introduce itself: ") +
                              FrameStatusName(status));
  }
  PayloadReader reader(hello.payload);
  const uint32_t worker = reader.U32();
  const uint64_t pid = reader.U64();
  Channel& channel = ChannelFor(worker);
  if (channel.fd >= 0) {
    // A reconnect after a transient error: the fresh channel supersedes the
    // broken one.
    ::close(channel.fd);
    FLEX_COUNTER_ADD("transport.reconnects", 1);
    FLEX_LOG(Info) << "worker " << worker << " reconnected (pid " << pid << ")";
  }
  channel.fd = fd;
  channel.last_contact_ns = obs::MonotonicNowNs();
  return worker;
}

uint32_t SocketTransport::AcceptWorker(double timeout_seconds) {
  FLEX_CHECK_GE(listen_fd_, 0);
  struct pollfd pfd;
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int pr = ::poll(&pfd, 1, static_cast<int>(timeout_seconds * 1e3));
    if (pr < 0 && errno == EINTR) {
      continue;
    }
    FLEX_CHECK_MSG(pr > 0, "timed out waiting for a worker to connect");
    break;
  }
  return AdoptPending(timeout_seconds);
}

FrameStatus SocketTransport::SendTo(uint32_t worker, FrameType type,
                                    const std::string& payload) {
  return SendTo(worker, type, payload, Crc32(payload.data(), payload.size()));
}

FrameStatus SocketTransport::SendTo(uint32_t worker, FrameType type,
                                    const std::string& payload, uint32_t crc) {
  Channel& channel = ChannelFor(worker);
  if (channel.fd < 0) {
    return FrameStatus::kIoError;
  }
  const FrameStatus status = WriteFrame(channel.fd, type, payload, crc);
  if (status != FrameStatus::kOk) {
    // The peer may be dead or mid-reconnect; either way this channel is done.
    // Liveness is judged by SecondsSinceContact, not by this failure.
    FLEX_LOG(Warning) << "send to worker " << worker << " failed ("
                      << FrameStatusName(status) << "); closing channel";
    CloseWorker(worker);
  }
  return status;
}

FrameStatus SocketTransport::RecvAny(double timeout_seconds, uint32_t* from,
                                     Frame* frame) {
  const int64_t deadline_ns =
      obs::MonotonicNowNs() + static_cast<int64_t>(timeout_seconds * 1e9);
  for (;;) {
    std::vector<struct pollfd> pfds;
    std::vector<uint32_t> owners;
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      owners.push_back(UINT32_MAX);
    }
    for (uint32_t w = 0; w < channels_.size(); ++w) {
      if (channels_[w].fd >= 0) {
        pfds.push_back({channels_[w].fd, POLLIN, 0});
        owners.push_back(w);
      }
    }
    const int64_t left_ns = deadline_ns - obs::MonotonicNowNs();
    if (left_ns <= 0) {
      return FrameStatus::kTimeout;
    }
    const int millis = static_cast<int>((left_ns + 999999) / 1000000);
    const int pr = ::poll(pfds.data(), pfds.size(), millis);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      return FrameStatus::kIoError;
    }
    if (pr == 0) {
      return FrameStatus::kTimeout;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      if (owners[i] == UINT32_MAX) {
        AdoptPending(/*timeout_seconds=*/5.0);
        continue;
      }
      const uint32_t w = owners[i];
      // Data is pending, so the frame should materialize fast; the short
      // cap only bounds a peer that stalls mid-frame.
      const FrameStatus status = ReadFrame(channels_[w].fd, frame, /*timeout=*/5.0);
      if (status == FrameStatus::kOk) {
        channels_[w].last_contact_ns = obs::MonotonicNowNs();
        if (frame->type == FrameType::kHeartbeat) {
          FLEX_COUNTER_ADD("transport.heartbeats_received", 1);
          continue;
        }
        *from = w;
        return FrameStatus::kOk;
      }
      // EOF or a malformed frame: drop the channel, loudly. The worker either
      // died (heartbeat silence will prove it) or will reconnect.
      FLEX_LOG(Warning) << "channel to worker " << w << " failed ("
                        << FrameStatusName(status) << "); closing";
      FLEX_COUNTER_ADD("transport.channel_errors", 1);
      CloseWorker(w);
    }
  }
}

double SocketTransport::SecondsSinceContact(uint32_t worker) const {
  if (worker >= channels_.size() || channels_[worker].last_contact_ns == 0) {
    return 1e18;
  }
  return static_cast<double>(obs::MonotonicNowNs() - channels_[worker].last_contact_ns) *
         1e-9;
}

bool SocketTransport::connected(uint32_t worker) const {
  return worker < channels_.size() && channels_[worker].fd >= 0;
}

void SocketTransport::CloseWorker(uint32_t worker) {
  if (worker < channels_.size() && channels_[worker].fd >= 0) {
    ::close(channels_[worker].fd);
    channels_[worker].fd = -1;
  }
}

void SocketTransport::CloseAll() {
  for (uint32_t w = 0; w < channels_.size(); ++w) {
    CloseWorker(w);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!endpoint_.empty()) {
    ::unlink(endpoint_.c_str());
    endpoint_.clear();
  }
}

int SocketTransport::ConnectWithBackoff(const std::string& endpoint,
                                        const RetryPolicy& retry) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  FLEX_CHECK_LT(endpoint.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, endpoint.c_str(), endpoint.size() + 1);
  for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    FLEX_CHECK_MSG(fd >= 0, "socket() failed: " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    SleepSeconds(retry.BackoffSeconds(attempt));
  }
  return -1;
}

}  // namespace flexgraph
