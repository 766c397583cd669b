// Tests for the util substrate: checks, logging, RNG, thread pool, aligned
// buffers, table printer, env parsing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/util/aligned_buffer.h"
#include "src/util/alloc_stats.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/table_printer.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace flexgraph {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  FLEX_CHECK(true);
  FLEX_CHECK_EQ(1, 1);
  FLEX_CHECK_LT(1, 2);
  FLEX_CHECK_GE(2, 2);
}

TEST(CheckTest, FailureCarriesContext) {
  try {
    const int lhs = 3;
    const int rhs = 4;
    FLEX_CHECK_EQ(lhs, rhs);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lhs"), std::string::npos);
    EXPECT_NE(what.find("util_test.cc"), std::string::npos);
    EXPECT_NE(what.find("lhs=3"), std::string::npos);
  }
}

TEST(CheckTest, MessageVariant) {
  EXPECT_THROW(FLEX_CHECK_MSG(false, "custom context"), CheckError);
  try {
    FLEX_CHECK_MSG(false, "custom context");
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
}

TEST(LoggingTest, SeverityFilterRoundTrip) {
  const LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  FLEX_LOG(Info) << "filtered out — must not crash";
  SetMinLogSeverity(original);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng c(124);
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, UniformFloatInRange) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.NextFloat();
    ASSERT_GE(f, 0.0f);
    ASSERT_LT(f, 1.0f);
    sum += f;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BoundedNeverExceedsBound) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SubmitBatchRunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(tasks));
  pool.SubmitBatch({});  // empty batch is a no-op
  pool.Wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(1);
  bool called = false;
  pool.ParallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(AlignedBufferTest, AlignmentAndValueSemantics) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
  buf.Fill(2.5f);
  AlignedBuffer copy = buf;
  copy[0] = 9.0f;
  EXPECT_EQ(buf[0], 2.5f);
  AlignedBuffer moved = std::move(copy);
  EXPECT_EQ(moved[0], 9.0f);
  EXPECT_EQ(moved.size(), 100u);
}

TEST(AlignedBufferTest, EveryAllocationIsCacheLineAligned) {
  // The SIMD kernels assume line-aligned bases for every size, including the
  // odd feature dims the parity tests sweep; aligned_alloc also requires the
  // byte size be a multiple of the alignment, which the buffer rounds up.
  for (std::size_t count : {1u, 3u, 16u, 17u, 63u, 64u, 65u, 1000u}) {
    AlignedBuffer buf(count);
    EXPECT_TRUE(IsCacheLineAligned(buf.data())) << "count=" << count;
  }
  static_assert(kCacheLineFloats * sizeof(float) == kCacheLineBytes);
}

TEST(AlignedBufferTest, BorrowKeepsAlignmentContract) {
  AlignedBuffer backing(64);
  AlignedBuffer borrowed = AlignedBuffer::Borrow(backing.data(), 64);
  EXPECT_FALSE(borrowed.owned());
  EXPECT_TRUE(IsCacheLineAligned(borrowed.data()));
  // A misaligned borrow trips the contract check.
  EXPECT_THROW(AlignedBuffer::Borrow(backing.data() + 1, 8), CheckError);
}

TEST(AllocStatsTest, ThreadHeapAllocsCountWithoutAWorkspaceScope) {
  // Heap-computing paths (DistributedTrainer::TrainEpoch) are measured as a
  // delta of the per-thread total; it must not need, or feed, the scoped
  // counting that backs exec.alloc_count.
  ASSERT_FALSE(allocstats::ScopedCountingActive());
  const uint64_t total_before = allocstats::ThreadHeapAllocs();
  const uint64_t scoped_before = allocstats::ScopedHeapAllocs();
  {
    AlignedBuffer a(16);
    AlignedBuffer b(1000);
    AlignedBuffer none;  // no storage, no allocation
  }
  EXPECT_EQ(allocstats::ThreadHeapAllocs(), total_before + 2);
  EXPECT_EQ(allocstats::ScopedHeapAllocs(), scoped_before);
}

TEST(AlignedBufferTest, ZeroAndEmpty) {
  AlignedBuffer empty;
  EXPECT_TRUE(empty.empty());
  AlignedBuffer buf(8);
  buf.Fill(1.0f);
  buf.Zero();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buf[i], 0.0f);
  }
}

TEST(TablePrinterTest, AlignsColumnsAndFormatsNumbers) {
  TablePrinter table({"A", "LongHeader"});
  table.AddRow({"x", TablePrinter::Num(1.23456, 2)});
  std::ostringstream oss;
  table.Print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("LongHeader"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_EQ(out.find("1.234"), std::string::npos);
}

TEST(TablePrinterTest, WrongArityThrows) {
  TablePrinter table({"A", "B"});
  EXPECT_THROW(table.AddRow({"only one"}), CheckError);
}

TEST(EnvTest, ParsesAndFallsBack) {
  ::setenv("FLEXGRAPH_TEST_INT", "42", 1);
  ::setenv("FLEXGRAPH_TEST_DBL", "2.5", 1);
  ::setenv("FLEXGRAPH_TEST_BAD", "zzz", 1);
  EXPECT_EQ(EnvInt("FLEXGRAPH_TEST_INT", 0), 42);
  EXPECT_DOUBLE_EQ(EnvDouble("FLEXGRAPH_TEST_DBL", 0.0), 2.5);
  EXPECT_EQ(EnvInt("FLEXGRAPH_TEST_BAD", 7), 7);
  EXPECT_EQ(EnvInt("FLEXGRAPH_TEST_UNSET_XYZ", -1), -1);
  ::unsetenv("FLEXGRAPH_TEST_INT");
  ::unsetenv("FLEXGRAPH_TEST_DBL");
  ::unsetenv("FLEXGRAPH_TEST_BAD");
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.ElapsedSeconds(), 0.009);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 0.009);
}

TEST(TimerTest, ScopedAccumulatorAdds) {
  double sink = 0.0;
  {
    ScopedAccumulator acc(&sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    ScopedAccumulator acc(&sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(sink, 0.009);
}

TEST(Crc32Test, KnownAnswerAndIncrementalUpdate) {
  // The CRC-32/IEEE check value: Crc32("123456789") == 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(data, 0), 0u);

  // Incremental computation over split buffers matches the one-shot result.
  const uint32_t first = Crc32(data, 4);
  EXPECT_EQ(Crc32(data + 4, 5, first), 0xCBF43926u);
}

// Random bytes from a fixed seed, for the fold-vs-table comparisons.
std::string RandomBytes(std::size_t size, Rng& rng) {
  std::string bytes(size, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.NextU32());
  }
  return bytes;
}

TEST(Crc32Test, FoldMatchesBytewiseOverEveryLengthAndOffset) {
  // Every length from 0 to 1100 crosses the 64-byte threshold of the fold and
  // every 16-byte block boundary of its body; 16 start offsets cover every
  // alignment of the unaligned loads.
  constexpr std::size_t kMaxLength = 1100;
  constexpr std::size_t kOffsets = 16;
  Rng rng(0xC3C32u);
  const std::string bytes = RandomBytes(kMaxLength + kOffsets, rng);
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const char* data = bytes.data() + offset;
      const uint32_t init = rng.NextU32();
      ASSERT_EQ(Crc32(data, length), Crc32Bytewise(data, length))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32(data, length, init), Crc32Bytewise(data, length, init))
          << "offset " << offset << " length " << length << " crc " << init;
    }
  }
}

TEST(Crc32Test, ChainedCallsMatchOneShot) {
  // A sum fed in pieces equals the one-shot sum wherever the pieces split,
  // including pieces too short for the fold between ones that take it.
  Rng rng(0x5EED5u);
  const std::string bytes = RandomBytes(8192, rng);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t size = rng.NextBounded(bytes.size() + 1);
    std::size_t pos = 0;
    uint32_t crc = 0;
    while (pos < size) {
      const std::size_t piece_cap = rng.NextBounded(2) == 0 ? 64 : 2048;
      const std::size_t piece = std::min(size - pos, rng.NextBounded(piece_cap));
      crc = Crc32(bytes.data() + pos, piece, crc);
      pos += piece;
    }
    ASSERT_EQ(crc, Crc32Bytewise(bytes.data(), size)) << "trial " << trial << " size " << size;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string payload(256, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i);
  }
  const uint32_t clean = Crc32(payload.data(), payload.size());
  payload[100] = static_cast<char>(payload[100] ^ 0x10);
  EXPECT_NE(Crc32(payload.data(), payload.size()), clean);
}

}  // namespace
}  // namespace flexgraph
