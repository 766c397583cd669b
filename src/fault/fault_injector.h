// Deterministic fault injection for the simulated distributed runtime.
//
// A FaultInjector holds an explicit schedule of fault events — worker crashes
// at a chosen epoch/layer, dropped or corrupted modeled transfers, straggler
// slowdown factors, checkpoint-file truncation — and the runtime/trainer query
// it at well-defined points. Queries are deterministic: the same schedule (or
// the same seed, for randomly generated schedules) always produces the same
// fault sequence, so a faulty run is exactly reproducible and the tests can
// assert that recovery restores bit-identical results.
//
// Consumption semantics per kind:
//   * kWorkerCrash, kMessageDrop, kMessageCorrupt, kCheckpointTruncate fire
//     at most once (one-shot): after a crash is recovered the re-executed
//     epoch does not crash again, and a dropped transfer is re-sent cleanly.
//   * kStraggler is persistent for its epoch — a slow machine stays slow for
//     every layer of that epoch, including a post-recovery re-execution.
//
// Every fired event increments a `fault.*` counter in the MetricRegistry and
// is appended to fired() so tests can assert the exact schedule replayed.
// Each scheduled event does so once, however often it fires: Rearm() lets
// a second phase of one run replay the one-shot events without counting
// them again.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace flexgraph {

enum class FaultKind {
  kWorkerCrash,
  // Socket backend only: the supervisor genuinely SIGKILLs the live worker
  // process mid-epoch; detection then happens through real heartbeat silence
  // rather than the modeled timeline. One-shot like kWorkerCrash.
  kWorkerKill,
  kMessageDrop,
  kMessageCorrupt,
  kStraggler,
  kCheckpointTruncate,
};

// Wildcards for the matching fields of message-fault events.
inline constexpr uint32_t kAnyWorker = UINT32_MAX;
inline constexpr int kAnyLayer = -1;

struct FaultEvent {
  FaultKind kind = FaultKind::kWorkerCrash;
  int64_t epoch = 0;
  uint32_t worker = 0;  // crash/straggler victim; messages: receiving worker
  int layer = 0;        // crash: layer the worker dies in; messages: affected layer
  int failures = 1;     // messages: failed delivery attempts before success
  double factor = 1.0;  // straggler compute-slowdown multiplier (>= 1)
};

// The crash the runtime must recover from this epoch.
struct CrashPlan {
  uint32_t worker = 0;
  int layer = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : rng_(seed) {}

  // Schedule builders (chainable).
  FaultInjector& ScheduleCrash(int64_t epoch, uint32_t worker, int layer = 0)
      FLEX_EXCLUDES(mutex_);
  FaultInjector& ScheduleMessageDrop(int64_t epoch, int layer, uint32_t dst_worker,
                                     int failures = 1) FLEX_EXCLUDES(mutex_);
  FaultInjector& ScheduleMessageCorruption(int64_t epoch, int layer, uint32_t dst_worker,
                                           int failures = 1) FLEX_EXCLUDES(mutex_);
  FaultInjector& ScheduleKill(int64_t epoch, uint32_t worker, int layer = 0)
      FLEX_EXCLUDES(mutex_);
  FaultInjector& ScheduleStraggler(int64_t epoch, uint32_t worker, double factor)
      FLEX_EXCLUDES(mutex_);
  FaultInjector& ScheduleCheckpointTruncation(int64_t epoch) FLEX_EXCLUDES(mutex_);

  // Generates `count` message drop/corruption events uniformly over
  // epochs × layers × workers from the injector's seed. Same seed, same
  // schedule — the deterministic "random chaos" mode.
  FaultInjector& ScheduleRandomMessageFaults(int count, int64_t num_epochs, int num_layers,
                                             uint32_t num_workers) FLEX_EXCLUDES(mutex_);

  // ---- Queries (called by the runtime/trainer at injection points) ----

  // First unconsumed crash scheduled for `epoch`, if any. Consumes it.
  std::optional<CrashPlan> NextCrash(int64_t epoch) FLEX_EXCLUDES(mutex_);

  // First unconsumed real-kill scheduled for `epoch`, if any. Consumes it.
  // Queried by the socket supervisor; the modeled runtime never kills.
  std::optional<CrashPlan> NextKill(int64_t epoch) FLEX_EXCLUDES(mutex_);

  // Total failed delivery attempts charged to the transfer arriving at
  // `dst_worker` in (epoch, layer). Sums drop + corruption events (corruption
  // is detected by the receiver's checksum, so both cost a retransmission).
  // Consumes the matched events.
  int TransferFailures(int64_t epoch, int layer, uint32_t dst_worker) FLEX_EXCLUDES(mutex_);

  // Combined compute-slowdown factor for `worker` during `epoch` (1.0 = no
  // straggler). Persistent: does not consume the event.
  double StragglerFactor(int64_t epoch, uint32_t worker) FLEX_EXCLUDES(mutex_);

  // True when the checkpoint written at `epoch` should be truncated
  // (torn-write / disk-corruption model). Consumes the event.
  bool CheckpointTruncationAt(int64_t epoch) FLEX_EXCLUDES(mutex_);

  // Makes every consumed one-shot event fire again, for a later phase of
  // the same run that replays the schedule from epoch 0. An event already
  // fired stays counted once: neither its `fault.*` counter nor fired()
  // grows when it fires again.
  void Rearm() FLEX_EXCLUDES(mutex_);

  // ---- Introspection ----
  // Snapshots, returned by value: queries above mutate the underlying state
  // concurrently, so handing out references would be a data race.
  std::vector<FaultEvent> schedule() const FLEX_EXCLUDES(mutex_);
  std::vector<FaultEvent> fired() const FLEX_EXCLUDES(mutex_);
  int64_t fired_count(FaultKind kind) const FLEX_EXCLUDES(mutex_);

  // Truncates the tail of `path` to keep_fraction of its size — the physical
  // effect of a kCheckpointTruncate event. Returns the number of bytes
  // removed (0 when the file does not exist).
  static uint64_t TruncateFileTail(const std::string& path, double keep_fraction = 0.5);

 private:
  struct Slot {
    FaultEvent event;
    bool consumed = false;
    bool reported = false;  // fired() and the counters record each event once
  };

  FaultInjector& Add(const FaultEvent& event) FLEX_EXCLUDES(mutex_);
  void RecordFired(Slot& slot) FLEX_REQUIRES(mutex_);

  // One lock covers both the schedule (one-shot consumption flips `consumed`
  // under it, so two workers can never both claim the same event) and the
  // seeded RNG (ScheduleRandomMessageFaults draws from it).
  mutable Mutex mutex_;
  std::vector<Slot> slots_ FLEX_GUARDED_BY(mutex_);
  std::vector<FaultEvent> schedule_ FLEX_GUARDED_BY(mutex_);
  std::vector<FaultEvent> fired_ FLEX_GUARDED_BY(mutex_);
  Rng rng_ FLEX_GUARDED_BY(mutex_);
};

}  // namespace flexgraph

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
