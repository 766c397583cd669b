// Negative-path tests for the socket transport's wire framing: every way a
// frame can go wrong (truncation, corruption, oversized length, timeout,
// short reads) must surface as a structured FrameStatus — loudly, and never
// as a hang. Plus the payload builder/cursor roundtrip and the worker-side
// connect backoff giving up cleanly.
#include "src/dist/transport_frame.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/dist/transport.h"
#include "src/dist/transport_socket.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace flexgraph {
namespace {

// A connected AF_UNIX stream pair; fds closed on scope exit.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) {
      close(a);
    }
    if (b >= 0) {
      close(b);
    }
  }
};

// Serializes a frame header by hand so tests can lie in every field.
std::string RawHeader(uint32_t magic, uint32_t type, uint64_t length, uint32_t crc) {
  std::string h(kFrameHeaderBytes, '\0');
  std::memcpy(&h[0], &magic, 4);
  std::memcpy(&h[4], &type, 4);
  std::memcpy(&h[8], &length, 8);
  std::memcpy(&h[16], &crc, 4);
  return h;
}

TEST(TransportFrameTest, RoundTripPreservesTypeAndPayload) {
  SocketPair p;
  const std::string payload = "forty-two bytes of payload, give or take";
  ASSERT_EQ(FrameStatus::kOk, WriteFrame(p.a, FrameType::kLayerRows, payload));
  Frame frame;
  ASSERT_EQ(FrameStatus::kOk, ReadFrame(p.b, &frame, 1.0));
  EXPECT_EQ(FrameType::kLayerRows, frame.type);
  EXPECT_EQ(payload, frame.payload);
}

TEST(TransportFrameTest, EmptyPayloadRoundTrips) {
  SocketPair p;
  ASSERT_EQ(FrameStatus::kOk, WriteFrame(p.a, FrameType::kShutdown, ""));
  Frame frame;
  ASSERT_EQ(FrameStatus::kOk, ReadFrame(p.b, &frame, 1.0));
  EXPECT_EQ(FrameType::kShutdown, frame.type);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(TransportFrameTest, CleanCloseAtFrameBoundaryIsEof) {
  SocketPair p;
  close(p.a);
  p.a = -1;
  Frame frame;
  EXPECT_EQ(FrameStatus::kEof, ReadFrame(p.b, &frame, 1.0));
}

TEST(TransportFrameTest, CloseMidHeaderIsTruncated) {
  SocketPair p;
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kHeartbeat), 0, 0);
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, header.data(), 7));  // 7 of 20 bytes
  close(p.a);
  p.a = -1;
  Frame frame;
  EXPECT_EQ(FrameStatus::kTruncated, ReadFrame(p.b, &frame, 1.0));
}

TEST(TransportFrameTest, CloseMidPayloadIsTruncated) {
  SocketPair p;
  PayloadWriter w;
  w.PutU64(0xDEADBEEFull);
  const std::string payload = w.Take();
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kPrepare),
                payload.size() + 8,  // promise 8 bytes more than we send
                Crc32(payload.data(), payload.size()));
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, header.data(), header.size()));
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, payload.data(), payload.size()));
  close(p.a);
  p.a = -1;
  Frame frame;
  EXPECT_EQ(FrameStatus::kTruncated, ReadFrame(p.b, &frame, 1.0));
}

TEST(TransportFrameTest, BadMagicIsStructuredNotSilent) {
  SocketPair p;
  const std::string header =
      RawHeader(0x4B4F4A4Bu, static_cast<uint32_t>(FrameType::kHello), 0, 0);
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, header.data(), header.size()));
  Frame frame;
  EXPECT_EQ(FrameStatus::kBadMagic, ReadFrame(p.b, &frame, 1.0));
}

TEST(TransportFrameTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  SocketPair p;
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kGradients),
                kMaxFramePayload + 1, 0);
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, header.data(), header.size()));
  Frame frame;
  EXPECT_EQ(FrameStatus::kOversized, ReadFrame(p.b, &frame, 1.0));
}

TEST(TransportFrameTest, CorruptedPayloadFailsCrc) {
  SocketPair p;
  std::string payload = "bits on the wire, one of them flipped";
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kLayerRun),
                payload.size(), Crc32(payload.data(), payload.size()));
  payload[5] ^= 0x40;  // corrupt AFTER the header's CRC was computed
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, header.data(), header.size()));
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, payload.data(), payload.size()));
  Frame frame;
  EXPECT_EQ(FrameStatus::kBadCrc, ReadFrame(p.b, &frame, 1.0));
}

// A payload past 1 MiB whose length is not a multiple of 16, so the CRC runs
// the fold over the body and the table loop over the tail.
std::string LargePayload() {
  std::string payload((1u << 20) + 37, '\0');
  uint32_t x = 0x9E3779B9u;
  for (char& c : payload) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return payload;
}

TEST(TransportFrameTest, BroadcastWithOneCrcReadsBackOnEveryChannel) {
  // The supervisor checksums a broadcast payload once and sends it on every
  // channel with that CRC; each receiver recomputes it and must agree.
  const std::string payload = LargePayload();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  EXPECT_EQ(crc, Crc32Bytewise(payload.data(), payload.size()));
  SocketPair first;
  SocketPair second;
  const int fds[2] = {first.a, second.a};
  std::thread sender([&payload, crc, &fds]() {
    for (const int fd : fds) {
      EXPECT_EQ(FrameStatus::kOk, WriteFrame(fd, FrameType::kLayerRun, payload, crc));
    }
  });
  Frame a;
  Frame b;
  EXPECT_EQ(FrameStatus::kOk, ReadFrame(first.b, &a, 10.0));
  EXPECT_EQ(FrameStatus::kOk, ReadFrame(second.b, &b, 10.0));
  sender.join();
  EXPECT_EQ(FrameType::kLayerRun, a.type);
  EXPECT_EQ(FrameType::kLayerRun, b.type);
  EXPECT_TRUE(a.payload == payload);
  EXPECT_TRUE(b.payload == payload);
}

TEST(TransportFrameTest, BitFlipInsideFoldedBodyFailsCrc) {
  SocketPair p;
  std::string payload = LargePayload();
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kLayerRun),
                payload.size(), Crc32(payload.data(), payload.size()));
  payload[700001] ^= 0x08;  // inside the 16-byte-multiple body, far from the tail
  const int fd = p.a;
  std::thread sender([&header, &payload, fd]() {
    EXPECT_EQ(FrameStatus::kOk, WriteFull(fd, header.data(), header.size()));
    EXPECT_EQ(FrameStatus::kOk, WriteFull(fd, payload.data(), payload.size()));
  });
  Frame frame;
  EXPECT_EQ(FrameStatus::kBadCrc, ReadFrame(p.b, &frame, 10.0));
  sender.join();
}

TEST(TransportFrameTest, SilentPeerTimesOutInsteadOfHanging) {
  SocketPair p;
  Frame frame;
  EXPECT_EQ(FrameStatus::kTimeout, ReadFrame(p.b, &frame, 0.05));
  // Partial header, then silence: still a timeout, not a hang.
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kHello), 0, 0);
  ASSERT_EQ(FrameStatus::kOk, WriteFull(p.a, header.data(), 5));
  EXPECT_EQ(FrameStatus::kTimeout, ReadFrame(p.b, &frame, 0.05));
}

TEST(TransportFrameTest, DribbledBytesReassembleAcrossShortReads) {
  // A writer thread drips the frame one byte at a time, forcing the reader
  // through many short poll()+read() cycles (the EINTR/short-read path).
  SocketPair p;
  PayloadWriter w;
  for (uint32_t i = 0; i < 64; ++i) {
    w.PutU32(i * 2654435761u);
  }
  const std::string payload = w.Take();
  const std::string header =
      RawHeader(kFrameMagic, static_cast<uint32_t>(FrameType::kLayerRows),
                payload.size(), Crc32(payload.data(), payload.size()));
  const std::string wire = header + payload;
  const int fd = p.a;
  std::thread writer([&wire, fd]() {
    for (char c : wire) {
      ASSERT_EQ(FrameStatus::kOk, WriteFull(fd, &c, 1));
    }
  });
  Frame frame;
  EXPECT_EQ(FrameStatus::kOk, ReadFrame(p.b, &frame, 5.0));
  writer.join();
  EXPECT_EQ(payload, frame.payload);
}

TEST(TransportFrameTest, StatusNamesAreDistinct) {
  EXPECT_STRNE(FrameStatusName(FrameStatus::kEof), FrameStatusName(FrameStatus::kTruncated));
  EXPECT_STRNE(FrameStatusName(FrameStatus::kBadCrc), FrameStatusName(FrameStatus::kBadMagic));
}

TEST(PayloadCodecTest, RoundTripAllScalarTypes) {
  PayloadWriter w;
  w.PutU32(0xCAFEBABEu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutF32(3.5f);
  w.PutF64(-0.125);
  const float block[3] = {1.0f, 2.0f, 3.0f};
  w.PutBytes(block, sizeof(block));

  const std::string payload = w.str();
  PayloadReader r(payload);
  EXPECT_EQ(0xCAFEBABEu, r.U32());
  EXPECT_EQ(0x0123456789ABCDEFull, r.U64());
  EXPECT_EQ(-42, r.I64());
  EXPECT_EQ(3.5f, r.F32());
  EXPECT_EQ(-0.125, r.F64());
  float out[3] = {};
  r.Bytes(out, sizeof(out));
  EXPECT_EQ(0, std::memcmp(block, out, sizeof(block)));
  EXPECT_EQ(0u, r.remaining());
}

TEST(PayloadCodecTest, UnderflowThrowsStructuredError) {
  PayloadWriter w;
  w.PutU32(7);
  const std::string payload = w.str();
  PayloadReader r(payload);
  EXPECT_EQ(7u, r.U32());
  EXPECT_THROW(r.U64(), CheckError);
}

TEST(SocketTransportTest, ConnectBackoffGivesUpCleanly) {
  RetryPolicy fast;
  fast.timeout_seconds = 0.005;
  fast.base_backoff_seconds = 0.001;
  fast.max_attempts = 3;
  EXPECT_EQ(-1, SocketTransport::ConnectWithBackoff("/tmp/flexgraph-nonexistent.sock", fast));
}

TEST(SocketTransportTest, NeverContactedWorkerReadsAsForeverSilent) {
  SocketTransport transport{NetworkModel{}};
  EXPECT_GT(transport.SecondsSinceContact(0), 1e9);
  EXPECT_FALSE(transport.connected(0));
}

TEST(TransportConfigTest, ValidateNetworkModelRejectsPoisonedConfigs) {
  NetworkModel ok;
  EXPECT_NO_THROW(ValidateNetworkModel(ok));
  NetworkModel zero_bw;
  zero_bw.bandwidth_bytes_per_sec = 0.0;
  EXPECT_THROW(ValidateNetworkModel(zero_bw), CheckError);
  NetworkModel negative_latency;
  negative_latency.latency_seconds = -1e-6;
  EXPECT_THROW(ValidateNetworkModel(negative_latency), CheckError);
}

TEST(TransportConfigTest, ParseAndNameRoundTrip) {
  DistBackend backend = DistBackend::kSocket;
  EXPECT_TRUE(ParseDistBackend("modeled", &backend));
  EXPECT_EQ(DistBackend::kModeled, backend);
  EXPECT_TRUE(ParseDistBackend("socket", &backend));
  EXPECT_EQ(DistBackend::kSocket, backend);
  EXPECT_FALSE(ParseDistBackend("carrier-pigeon", &backend));
  EXPECT_STREQ("modeled", DistBackendName(DistBackend::kModeled));
  EXPECT_STREQ("socket", DistBackendName(DistBackend::kSocket));
}

}  // namespace
}  // namespace flexgraph
