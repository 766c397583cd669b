// Parity of the traced driver: for each single-machine training path the
// benchmark traces (PinSage, MAGNN, and the GCN driver of the socket
// workload), TracedTrainer — with the HDG-build probe interleaved before every
// epoch, as in the traced run — must reproduce Trainer::Fit's loss trajectory
// bitwise at reduced scale. Otherwise the traced run would measure a
// different program from the end-to-end run. Three epochs, because a
// gradient left over from one step only shows in the loss two epochs later.
//
//   ctest --test-dir .bench_build/e2e_bench --output-on-failure
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/exec/parallel.h"
#include "traced_trainer.h"
#include "workloads.h"

namespace {

constexpr int kEpochs = 3;
constexpr double kScale = 0.1;
constexpr uint64_t kSeed = e2e::kReferenceSeed;

std::vector<float> FitLosses(const e2e::WorkloadSpec& spec) {
  e2e::TrainState state(spec, kSeed, kScale);
  std::vector<float> losses;
  flexgraph::TrainerOptions options = e2e::FitOptions(kEpochs);
  options.on_epoch = [&](int, float loss, float) {
    losses.push_back(loss);
    return true;
  };
  flexgraph::Trainer trainer(state.engine, options);
  trainer.Fit(state.model, state.ds.features, state.ds.labels, state.split, state.rng);
  return losses;
}

std::vector<float> TracedLosses(const e2e::WorkloadSpec& spec) {
  e2e::TrainState state(spec, kSeed, kScale);
  e2e::SpanRecorder spans;
  e2e::TracedTrainer traced(state, &spans);
  std::vector<float> losses;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    e2e::ProbeHdgBuild(state, &spans);
    losses.push_back(traced.RunEpoch(epoch).loss);
  }
  return losses;
}

}  // namespace

int main() {
  flexgraph::exec::SetNumThreads(2);
  int failures = 0;
  for (const e2e::WorkloadSpec& spec : e2e::AllWorkloads()) {
    const std::vector<float> fit = FitLosses(spec);
    const std::vector<float> traced = TracedLosses(spec);
    const bool same = fit.size() == traced.size() &&
                      std::memcmp(fit.data(), traced.data(), fit.size() * sizeof(float)) == 0;
    std::printf("%-20s fit", spec.name);
    for (float loss : fit) {
      std::printf(" %.9g", static_cast<double>(loss));
    }
    std::printf(" | traced");
    for (float loss : traced) {
      std::printf(" %.9g", static_cast<double>(loss));
    }
    std::printf("  %s\n", same ? "OK" : "MISMATCH");
    failures += same ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}
