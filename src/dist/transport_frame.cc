#include "src/dist/transport_frame.h"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace flexgraph {

namespace {

// Remaining poll budget in whole milliseconds, rounded up so a deadline a few
// hundred microseconds away still polls (0 would busy-spin through poll).
int RemainingMillis(int64_t deadline_ns) {
  if (deadline_ns < 0) {
    return -1;  // infinite
  }
  const int64_t left_ns = deadline_ns - obs::MonotonicNowNs();
  if (left_ns <= 0) {
    return 0;
  }
  return static_cast<int>((left_ns + 999999) / 1000000);
}

}  // namespace

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kEof:
      return "eof";
    case FrameStatus::kTimeout:
      return "timeout";
    case FrameStatus::kTruncated:
      return "truncated";
    case FrameStatus::kBadMagic:
      return "bad-magic";
    case FrameStatus::kOversized:
      return "oversized";
    case FrameStatus::kBadCrc:
      return "bad-crc";
    case FrameStatus::kIoError:
      return "io-error";
  }
  return "unknown";
}

FrameStatus WriteFull(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    // send() with MSG_NOSIGNAL instead of write(): a worker whose supervisor
    // died must see EPIPE, not take SIGPIPE and die without cleanup.
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return FrameStatus::kIoError;
    }
    sent += static_cast<std::size_t>(n);
  }
  return FrameStatus::kOk;
}

FrameStatus ReadFull(int fd, void* data, std::size_t size, double timeout_seconds,
                     std::size_t* got) {
  char* p = static_cast<char*>(data);
  std::size_t received = 0;
  const int64_t deadline_ns =
      timeout_seconds < 0
          ? -1
          : obs::MonotonicNowNs() + static_cast<int64_t>(timeout_seconds * 1e9);
  while (received < size) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int millis = RemainingMillis(deadline_ns);
    if (deadline_ns >= 0 && millis == 0) {
      if (got != nullptr) {
        *got = received;
      }
      return FrameStatus::kTimeout;
    }
    const int pr = ::poll(&pfd, 1, millis);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (got != nullptr) {
        *got = received;
      }
      return FrameStatus::kIoError;
    }
    if (pr == 0) {
      continue;  // deadline re-checked at the top of the loop
    }
    const ssize_t n = ::recv(fd, p + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      if (got != nullptr) {
        *got = received;
      }
      return FrameStatus::kIoError;
    }
    if (n == 0) {
      if (got != nullptr) {
        *got = received;
      }
      return received == 0 ? FrameStatus::kEof : FrameStatus::kTruncated;
    }
    received += static_cast<std::size_t>(n);
  }
  if (got != nullptr) {
    *got = received;
  }
  return FrameStatus::kOk;
}

FrameStatus WriteFrame(int fd, FrameType type, const std::string& payload) {
  return WriteFrame(fd, type, payload, Crc32(payload.data(), payload.size()));
}

FrameStatus WriteFrame(int fd, FrameType type, const std::string& payload, uint32_t crc) {
  FLEX_CHECK_LE(payload.size(), kMaxFramePayload);
  char header[kFrameHeaderBytes];
  const uint32_t magic = kFrameMagic;
  const uint32_t type_u32 = static_cast<uint32_t>(type);
  const uint64_t length = payload.size();
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &type_u32, 4);
  std::memcpy(header + 8, &length, 8);
  std::memcpy(header + 16, &crc, 4);
  FrameStatus status = WriteFull(fd, header, sizeof(header));
  if (status != FrameStatus::kOk) {
    return status;
  }
  if (!payload.empty()) {
    status = WriteFull(fd, payload.data(), payload.size());
    if (status != FrameStatus::kOk) {
      return status;
    }
  }
  FLEX_COUNTER_ADD("transport.frames_sent", 1);
  FLEX_COUNTER_ADD("transport.bytes_sent",
                   static_cast<int64_t>(sizeof(header) + payload.size()));
  return FrameStatus::kOk;
}

FrameStatus ReadFrame(int fd, Frame* out, double timeout_seconds) {
  char header[kFrameHeaderBytes];
  std::size_t got = 0;
  FrameStatus status = ReadFull(fd, header, sizeof(header), timeout_seconds, &got);
  if (status == FrameStatus::kEof) {
    return FrameStatus::kEof;
  }
  if (status != FrameStatus::kOk) {
    return status;
  }
  uint32_t magic = 0;
  uint32_t type_u32 = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  std::memcpy(&magic, header + 0, 4);
  std::memcpy(&type_u32, header + 4, 4);
  std::memcpy(&length, header + 8, 8);
  std::memcpy(&crc, header + 16, 4);
  if (magic != kFrameMagic) {
    return FrameStatus::kBadMagic;
  }
  if (length > kMaxFramePayload) {
    return FrameStatus::kOversized;
  }
  out->type = static_cast<FrameType>(type_u32);
  out->payload.resize(length);
  if (length > 0) {
    status = ReadFull(fd, out->payload.data(), length, timeout_seconds, &got);
    if (status == FrameStatus::kEof) {
      return FrameStatus::kTruncated;  // header arrived, payload never did
    }
    if (status != FrameStatus::kOk) {
      return status;
    }
  }
  if (Crc32(out->payload.data(), out->payload.size()) != crc) {
    return FrameStatus::kBadCrc;
  }
  FLEX_COUNTER_ADD("transport.frames_received", 1);
  FLEX_COUNTER_ADD("transport.bytes_received",
                   static_cast<int64_t>(sizeof(header) + out->payload.size()));
  return FrameStatus::kOk;
}

void PayloadReader::Bytes(void* out, std::size_t size) {
  FLEX_CHECK_MSG(pos_ + size <= payload_.size(),
                 "frame payload underflow: decoder wants more bytes than the "
                 "CRC-validated frame carries");
  std::memcpy(out, payload_.data() + pos_, size);
  pos_ += size;
}

}  // namespace flexgraph
