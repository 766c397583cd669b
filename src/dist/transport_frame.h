// Wire format of the socket transport (DESIGN.md §15).
//
// Every message is one frame: a fixed 20-byte little-endian header followed by
// the payload.
//
//   u32 magic   = 0x464C5846 ("FXLF")
//   u32 type    (FrameType)
//   u64 length  (payload bytes; 0 allowed, > kMaxFramePayload rejected)
//   u32 crc32   (IEEE CRC-32 of the payload bytes)
//
// Framing failures are structured, never silent and never a hang: every read
// runs against a poll() deadline, EINTR is retried, and the receiver
// distinguishes clean EOF, mid-frame truncation, bad magic, an oversized
// length prefix, and a CRC mismatch (FrameStatus). The negative paths are
// locked in by tests/transport_test.cc.
//
// This header is the only place in the tree allowed to touch raw socket
// syscalls besides transport*/supervisor* (fglint rule `raw-socket`).
#ifndef SRC_DIST_TRANSPORT_FRAME_H_
#define SRC_DIST_TRANSPORT_FRAME_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace flexgraph {

enum class FrameType : uint32_t {
  kHello = 1,        // worker -> supervisor: worker_id, pid (sent on [re]connect)
  kPartition = 2,    // supervisor -> workers: generation, num_parts, owner[]
  kPrepare = 3,      // supervisor -> worker: generation, rng state (token ring)
  kPrepareDone = 4,  // worker -> supervisor: rng state after HDG build, seconds
  kLayerRun = 5,     // supervisor -> worker: epoch, layer, h matrix (empty @ layer 0)
  kLayerRows = 6,    // worker -> supervisor: root rows + stage seconds
  kGradients = 7,    // supervisor -> workers: lr + parameter gradients
  kParamsAck = 8,    // worker -> supervisor: CRC-32 of updated parameters
  kHeartbeat = 9,    // worker -> supervisor: liveness beacon (at connect, then periodic)
  kShutdown = 10,    // supervisor -> workers: clean exit
};

enum class FrameStatus {
  kOk,
  kEof,        // peer closed cleanly at a frame boundary
  kTimeout,    // poll() deadline lapsed before a full frame arrived
  kTruncated,  // peer closed mid-header or mid-payload
  kBadMagic,   // stream out of sync / not a frame
  kOversized,  // length prefix exceeds kMaxFramePayload
  kBadCrc,     // payload corrupted in flight
  kIoError,    // read/write failed (errno preserved by the caller's log)
};

const char* FrameStatusName(FrameStatus status);

inline constexpr uint32_t kFrameMagic = 0x464C5846u;  // "FXLF"
inline constexpr uint64_t kMaxFramePayload = 1ull << 30;
inline constexpr std::size_t kFrameHeaderBytes = 20;

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

// Blocks until `size` bytes are written. Retries EINTR and short writes;
// returns kOk or kIoError. A peer that vanished mid-write (EPIPE/ECONNRESET)
// reports kIoError — SIGPIPE is suppressed per-call.
FrameStatus WriteFull(int fd, const void* data, std::size_t size);

// Reads exactly `size` bytes with a poll() deadline. timeout_seconds < 0
// blocks indefinitely. `got` (optional) receives the bytes read so far, which
// lets the frame reader tell kEof (0 bytes) from kTruncated (partial).
FrameStatus ReadFull(int fd, void* data, std::size_t size, double timeout_seconds,
                     std::size_t* got = nullptr);

FrameStatus WriteFrame(int fd, FrameType type, const std::string& payload);
// The same frame with the payload's Crc32 supplied by the caller, which
// computes it once for a payload it sends on several channels.
FrameStatus WriteFrame(int fd, FrameType type, const std::string& payload, uint32_t crc);
FrameStatus ReadFrame(int fd, Frame* out, double timeout_seconds);

// Little-endian payload builder/cursor. The reader FLEX_CHECKs on underflow:
// a frame that passed its CRC but decodes short is a protocol bug, and the
// loud structured error is exactly what the negative-path tests want.
class PayloadWriter {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF32(float v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const void* data, std::size_t size) { PutRaw(data, size); }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  std::string buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : payload_(payload) {}

  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  int64_t I64() { return Get<int64_t>(); }
  float F32() { return Get<float>(); }
  double F64() { return Get<double>(); }
  // Copies `size` bytes to `out` (raw tensor data etc.).
  void Bytes(void* out, std::size_t size);

  std::size_t remaining() const { return payload_.size() - pos_; }

 private:
  template <typename T>
  T Get() {
    T v;
    Bytes(&v, sizeof(v));
    return v;
  }

  const std::string& payload_;
  std::size_t pos_ = 0;
};

}  // namespace flexgraph

#endif  // SRC_DIST_TRANSPORT_FRAME_H_
