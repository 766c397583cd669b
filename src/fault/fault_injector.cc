#include "src/fault/fault_injector.h"

#include <cstdio>
#include <fstream>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace flexgraph {

namespace {

const char* KindCounterName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWorkerCrash:
      return "fault.worker_crashes";
    case FaultKind::kWorkerKill:
      return "fault.worker_kills";
    case FaultKind::kMessageDrop:
      return "fault.message_drops";
    case FaultKind::kMessageCorrupt:
      return "fault.message_corruptions";
    case FaultKind::kStraggler:
      return "fault.stragglers";
    case FaultKind::kCheckpointTruncate:
      return "fault.checkpoint_truncations";
  }
  return "fault.unknown";
}

bool LayerMatches(int scheduled, int queried) {
  return scheduled == kAnyLayer || queried == kAnyLayer || scheduled == queried;
}

bool WorkerMatches(uint32_t scheduled, uint32_t queried) {
  return scheduled == kAnyWorker || queried == kAnyWorker || scheduled == queried;
}

}  // namespace

FaultInjector& FaultInjector::Add(const FaultEvent& event) {
  MutexLock lock(mutex_);
  slots_.push_back(Slot{event, false, false});
  schedule_.push_back(event);
  return *this;
}

FaultInjector& FaultInjector::ScheduleCrash(int64_t epoch, uint32_t worker, int layer) {
  FaultEvent e;
  e.kind = FaultKind::kWorkerCrash;
  e.epoch = epoch;
  e.worker = worker;
  e.layer = layer;
  return Add(e);
}

FaultInjector& FaultInjector::ScheduleMessageDrop(int64_t epoch, int layer,
                                                  uint32_t dst_worker, int failures) {
  FLEX_CHECK_GE(failures, 1);
  FaultEvent e;
  e.kind = FaultKind::kMessageDrop;
  e.epoch = epoch;
  e.layer = layer;
  e.worker = dst_worker;
  e.failures = failures;
  return Add(e);
}

FaultInjector& FaultInjector::ScheduleMessageCorruption(int64_t epoch, int layer,
                                                        uint32_t dst_worker, int failures) {
  FLEX_CHECK_GE(failures, 1);
  FaultEvent e;
  e.kind = FaultKind::kMessageCorrupt;
  e.epoch = epoch;
  e.layer = layer;
  e.worker = dst_worker;
  e.failures = failures;
  return Add(e);
}

FaultInjector& FaultInjector::ScheduleKill(int64_t epoch, uint32_t worker, int layer) {
  FaultEvent e;
  e.kind = FaultKind::kWorkerKill;
  e.epoch = epoch;
  e.worker = worker;
  e.layer = layer;
  return Add(e);
}

FaultInjector& FaultInjector::ScheduleStraggler(int64_t epoch, uint32_t worker,
                                                double factor) {
  FLEX_CHECK_GE(factor, 1.0);
  FaultEvent e;
  e.kind = FaultKind::kStraggler;
  e.epoch = epoch;
  e.worker = worker;
  e.factor = factor;
  return Add(e);
}

FaultInjector& FaultInjector::ScheduleCheckpointTruncation(int64_t epoch) {
  FaultEvent e;
  e.kind = FaultKind::kCheckpointTruncate;
  e.epoch = epoch;
  return Add(e);
}

FaultInjector& FaultInjector::ScheduleRandomMessageFaults(int count, int64_t num_epochs,
                                                          int num_layers,
                                                          uint32_t num_workers) {
  FLEX_CHECK_GE(count, 0);
  FLEX_CHECK_GE(num_epochs, 1);
  FLEX_CHECK_GE(num_layers, 1);
  FLEX_CHECK_GE(num_workers, 1u);
  for (int i = 0; i < count; ++i) {
    int64_t epoch;
    int layer;
    uint32_t worker;
    bool drop;
    {
      MutexLock lock(mutex_);
      epoch = static_cast<int64_t>(rng_.NextBounded(static_cast<uint64_t>(num_epochs)));
      layer = static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(num_layers)));
      worker = static_cast<uint32_t>(rng_.NextBounded(num_workers));
      drop = rng_.NextBounded(2) == 0;
    }
    // Schedule* re-acquire the lock themselves.
    if (drop) {
      ScheduleMessageDrop(epoch, layer, worker);
    } else {
      ScheduleMessageCorruption(epoch, layer, worker);
    }
  }
  return *this;
}

void FaultInjector::RecordFired(Slot& slot) {
  if (slot.reported) {
    return;
  }
  slot.reported = true;
  fired_.push_back(slot.event);
  obs::MetricRegistry::Get().GetCounter(KindCounterName(slot.event.kind)).Increment();
}

std::optional<CrashPlan> FaultInjector::NextCrash(int64_t epoch) {
  MutexLock lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.event.kind == FaultKind::kWorkerCrash && !slot.consumed &&
        slot.event.epoch == epoch) {
      slot.consumed = true;
      RecordFired(slot);
      return CrashPlan{slot.event.worker, slot.event.layer};
    }
  }
  return std::nullopt;
}

std::optional<CrashPlan> FaultInjector::NextKill(int64_t epoch) {
  MutexLock lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.event.kind == FaultKind::kWorkerKill && !slot.consumed &&
        slot.event.epoch == epoch) {
      slot.consumed = true;
      RecordFired(slot);
      return CrashPlan{slot.event.worker, slot.event.layer};
    }
  }
  return std::nullopt;
}

int FaultInjector::TransferFailures(int64_t epoch, int layer, uint32_t dst_worker) {
  MutexLock lock(mutex_);
  int failures = 0;
  for (Slot& slot : slots_) {
    const FaultKind kind = slot.event.kind;
    if ((kind != FaultKind::kMessageDrop && kind != FaultKind::kMessageCorrupt) ||
        slot.consumed || slot.event.epoch != epoch ||
        !LayerMatches(slot.event.layer, layer) ||
        !WorkerMatches(slot.event.worker, dst_worker)) {
      continue;
    }
    slot.consumed = true;
    RecordFired(slot);
    failures += slot.event.failures;
  }
  return failures;
}

double FaultInjector::StragglerFactor(int64_t epoch, uint32_t worker) {
  MutexLock lock(mutex_);
  double factor = 1.0;
  for (Slot& slot : slots_) {
    if (slot.event.kind == FaultKind::kStraggler && slot.event.epoch == epoch &&
        WorkerMatches(slot.event.worker, worker)) {
      RecordFired(slot);
      factor *= slot.event.factor;
    }
  }
  return factor;
}

bool FaultInjector::CheckpointTruncationAt(int64_t epoch) {
  MutexLock lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.event.kind == FaultKind::kCheckpointTruncate && !slot.consumed &&
        slot.event.epoch == epoch) {
      slot.consumed = true;
      RecordFired(slot);
      return true;
    }
  }
  return false;
}

void FaultInjector::Rearm() {
  MutexLock lock(mutex_);
  for (Slot& slot : slots_) {
    slot.consumed = false;
  }
}

std::vector<FaultEvent> FaultInjector::schedule() const {
  MutexLock lock(mutex_);
  return schedule_;
}

std::vector<FaultEvent> FaultInjector::fired() const {
  MutexLock lock(mutex_);
  return fired_;
}

int64_t FaultInjector::fired_count(FaultKind kind) const {
  MutexLock lock(mutex_);
  int64_t n = 0;
  for (const FaultEvent& e : fired_) {
    if (e.kind == kind) {
      ++n;
    }
  }
  return n;
}

uint64_t FaultInjector::TruncateFileTail(const std::string& path, double keep_fraction) {
  FLEX_CHECK_GE(keep_fraction, 0.0);
  FLEX_CHECK_LE(keep_fraction, 1.0);
  std::ifstream ifs(path, std::ios::binary);
  if (!ifs.good()) {
    return 0;
  }
  std::string contents((std::istreambuf_iterator<char>(ifs)),
                       std::istreambuf_iterator<char>());
  ifs.close();
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(contents.size()) * keep_fraction);
  const uint64_t removed = contents.size() - keep;
  contents.resize(keep);
  std::ofstream ofs(path, std::ios::binary | std::ios::trunc);
  FLEX_CHECK_MSG(ofs.good(), "cannot rewrite file for truncation: " + path);
  ofs.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  FLEX_CHECK_MSG(ofs.good(), "truncation write failed: " + path);
  return removed;
}

}  // namespace flexgraph
