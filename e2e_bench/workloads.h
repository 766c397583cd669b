// The benchmark's workloads and the per-seed state each setup builds.
//
// Every input derives from one seed, in the same order flexgraph_train uses,
// so a benchmark run and `flexgraph_train --seed N` train the same model on
// the same data: the dataset from `seed`, the model parameters from
// `seed + 1`, the train/val split and the epoch random stream (PinSage's
// walks) from `seed`, and the distributed trainer's stream from `seed + 2`.
#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/datasets.h"

namespace e2e {

struct WorkloadSpec {
  const char* name;
  const char* model;    // "pinsage" | "magnn" | "gcn"
  const char* dataset;  // MakeDatasetByName name
  double scale;
  // Synthetic vertex types laid over the homogeneous dataset (0 = none);
  // MAGNN's metapaths need 3.
  int vertex_types;
  // Forked socket-backend worker processes; 0 = single machine.
  uint32_t workers;
  // Validation accuracy the run must reach (0 = no target).
  float accuracy_target;
};

const std::vector<WorkloadSpec>& AllWorkloads();
// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

inline constexpr float kLearningRate = 0.1f;

// Dataset + model for one seed. Heap-allocate it: the engine below keeps a
// reference to the graph, so the object must not move.
struct ModelState {
  ModelState(const WorkloadSpec& spec, uint64_t seed, double scale);
  ModelState(const ModelState&) = delete;
  ModelState& operator=(const ModelState&) = delete;

  flexgraph::Dataset ds;
  flexgraph::GnnModel model;
  double generate_seconds = 0.0;  // dataset generation alone
};

// Single-machine training state: the ModelState plus Trainer::Fit's inputs.
struct TrainState : ModelState {
  TrainState(const WorkloadSpec& spec, uint64_t seed, double scale);

  flexgraph::Rng rng;
  // 60/20/20 split; the test part is dropped so Fit ends without an extra
  // inference pass (it trains on `train` and reports accuracy on `val`).
  flexgraph::DataSplit split;
  flexgraph::Engine engine;
};

// Fit options for `max_epochs` epochs at the benchmark's learning rate.
flexgraph::TrainerOptions FitOptions(int max_epochs);

// ---- Recorded reference trajectories for kReferenceSeed ----

inline constexpr uint64_t kReferenceSeed = 7;

// Loss trajectory recorded at kReferenceSeed under `key`
// ("<workload>/fit" for Trainer::Fit, "<workload>/train" for
// DistributedTrainer::TrainEpoch); nullptr when none was recorded.
const std::vector<float>* ReferenceLosses(const std::string& key);

// True when `loss` is finite and, for the reference seed, equal to the
// recorded value at `index` up to float rounding (indices past the recorded
// length only need to be finite).
bool LossOk(const std::vector<float>* reference, std::size_t index, float loss);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
