// Shared helpers for the FlexGraph test suite.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/autograd.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace flexgraph {

inline Tensor RandomTensor(int64_t rows, int64_t cols, Rng& rng, float lo = -1.0f,
                           float hi = 1.0f) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.NextUniform(lo, hi);
  }
  return t;
}

// Exact byte-for-byte tensor equality — the determinism tests' comparison.
// The planned kernels promise *bitwise*-identical results across thread
// counts and execution strategies, not merely AllClose.
inline ::testing::AssertionResult BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: [" << a.rows() << ", " << a.cols() << "] vs ["
           << b.rows() << ", " << b.cols() << "]";
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    for (int64_t i = 0; i < a.numel(); ++i) {
      if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at flat index " << i << ": " << a.data()[i]
               << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Bitwise equality except that +0 and -0 compare equal: adopting a first
// gradient keeps the sign of an exact zero that 0 + g would have cleared.
inline ::testing::AssertionResult EqualUpToSignedZero(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::memcmp(&x, &y, sizeof(float)) != 0 && !(x == 0.0f && y == 0.0f)) {
      return ::testing::AssertionFailure()
             << "first difference at flat index " << i << ": " << x << " vs " << y;
    }
  }
  return ::testing::AssertionSuccess();
}

// Numerical gradient check: given a differentiable function expressed as
// leaf -> output Variable, compares autograd's gradient of
// L = Σ w_ij · out_ij (fixed random weights w) against central finite
// differences on the leaf tensor.
inline void ExpectGradientsMatch(const Tensor& input,
                                 const std::function<Variable(const Variable&)>& fn,
                                 float eps = 1e-2f, float tol = 2e-2f, uint64_t seed = 7) {
  Rng rng(seed);
  Variable leaf = Variable::Leaf(input, /*requires_grad=*/true);
  Variable out = fn(leaf);
  Tensor weights = RandomTensor(out.rows(), out.cols(), rng);

  // Analytic gradient.
  out.Backward(weights);
  const Tensor analytic = leaf.grad();

  // Numeric gradient by central differences.
  auto loss_at = [&](const Tensor& x) -> double {
    Variable l = Variable::Leaf(x);
    Variable o = fn(l);
    double acc = 0.0;
    for (int64_t i = 0; i < o.value().numel(); ++i) {
      acc += static_cast<double>(o.value().data()[i]) * weights.data()[i];
    }
    return acc;
  };

  Tensor perturbed = input;
  double max_err = 0.0;
  for (int64_t i = 0; i < input.numel(); ++i) {
    const float orig = perturbed.data()[i];
    perturbed.data()[i] = orig + eps;
    const double up = loss_at(perturbed);
    perturbed.data()[i] = orig - eps;
    const double down = loss_at(perturbed);
    perturbed.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    const double err = std::fabs(numeric - analytic.data()[i]);
    max_err = std::max(max_err, err);
    ASSERT_NEAR(numeric, analytic.data()[i], tol)
        << "gradient mismatch at flat index " << i;
  }
  (void)max_err;
}

// A synthetic MAGNN bottom + instance level for the instance-attention
// kernels: `vertices` rows of width d, slots of instances, and the inverse
// (source → instance) map the bottom-level backward gathers over, in
// ascending instance order. Column 0 of x is zero and so is all of row 0,
// so instance means carry exact zeros (gemm_trans_a's zero skip).
// MakeInstanceLevels draws instances of 1–3 random member vertices, about
// one in eight with row 0 as its only member, into slots of `slot_sizes`
// instances each (0 makes an empty slot); MakeInstanceLevelsFromSlots
// takes the slots as listed.
struct InstanceLevels {
  int64_t d = 0;
  Tensor x;
  std::vector<uint32_t> ids;
  std::vector<uint64_t> leaf_offsets;  // [I + 1]
  std::vector<uint64_t> slot_offsets;  // [S + 1]
  std::vector<uint32_t> slot_of;       // [I]
  std::vector<uint64_t> src_offsets;   // [vertices + 1]
  std::vector<uint32_t> src_segments;

  int64_t vertices() const { return x.rows(); }
  int64_t instances() const { return static_cast<int64_t>(leaf_offsets.size()) - 1; }
  int64_t slots() const { return static_cast<int64_t>(slot_offsets.size()) - 1; }
  int64_t longest_slot() const {
    uint64_t longest = 0;
    for (std::size_t s = 0; s + 1 < slot_offsets.size(); ++s) {
      longest = std::max(longest, slot_offsets[s + 1] - slot_offsets[s]);
    }
    return static_cast<int64_t>(longest);
  }
};

// Random features with column 0 and row 0 zeroed.
inline Tensor InstanceFeatures(int64_t vertices, int64_t d, Rng& rng) {
  Tensor x = RandomTensor(vertices, d, rng);
  for (int64_t v = 0; v < vertices; ++v) {
    x.At(v, 0) = 0.0f;
  }
  std::fill(x.Row(0), x.Row(0) + d, 0.0f);
  return x;
}

// The source → instance map of f's ids, in ascending instance order.
inline void BuildInverseMap(InstanceLevels& f) {
  const auto vertices = static_cast<std::size_t>(f.vertices());
  f.src_offsets.assign(vertices + 1, 0);
  for (const uint32_t v : f.ids) {
    ++f.src_offsets[v + 1];
  }
  for (std::size_t v = 0; v < vertices; ++v) {
    f.src_offsets[v + 1] += f.src_offsets[v];
  }
  f.src_segments.resize(f.ids.size());
  std::vector<uint64_t> cursor(f.src_offsets.begin(), f.src_offsets.end() - 1);
  for (std::size_t i = 0; i + 1 < f.leaf_offsets.size(); ++i) {
    for (uint64_t e = f.leaf_offsets[i]; e < f.leaf_offsets[i + 1]; ++e) {
      f.src_segments[cursor[f.ids[e]]++] = static_cast<uint32_t>(i);
    }
  }
}

inline InstanceLevels MakeInstanceLevels(int64_t vertices, int64_t d,
                                         const std::vector<int64_t>& slot_sizes, Rng& rng) {
  InstanceLevels f;
  f.d = d;
  f.x = InstanceFeatures(vertices, d, rng);
  f.leaf_offsets = {0};
  f.slot_offsets = {0};
  for (std::size_t s = 0; s < slot_sizes.size(); ++s) {
    for (int64_t l = 0; l < slot_sizes[s]; ++l) {
      if (rng.NextBounded(8) == 0) {
        f.ids.push_back(0);
      } else {
        const uint64_t width = 1 + rng.NextBounded(3);
        for (uint64_t e = 0; e < width; ++e) {
          f.ids.push_back(static_cast<uint32_t>(rng.NextBounded(static_cast<uint64_t>(vertices))));
        }
      }
      f.leaf_offsets.push_back(f.ids.size());
      f.slot_of.push_back(static_cast<uint32_t>(s));
    }
    f.slot_offsets.push_back(f.leaf_offsets.size() - 1);
  }
  BuildInverseMap(f);
  return f;
}

// Slots given as lists of instances, each a list of leaf ids.
using InstanceSlots = std::vector<std::vector<std::vector<uint32_t>>>;

inline InstanceLevels MakeInstanceLevelsFromSlots(int64_t vertices, int64_t d,
                                                  const InstanceSlots& slots, Rng& rng) {
  InstanceLevels f;
  f.leaf_offsets = {0};
  f.slot_offsets = {0};
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (const std::vector<uint32_t>& instance : slots[s]) {
      f.ids.insert(f.ids.end(), instance.begin(), instance.end());
      f.leaf_offsets.push_back(f.ids.size());
      f.slot_of.push_back(static_cast<uint32_t>(s));
    }
    f.slot_offsets.push_back(f.leaf_offsets.size() - 1);
  }
  f.d = d;
  f.x = InstanceFeatures(vertices, d, rng);
  BuildInverseMap(f);
  return f;
}

// Slots shaped like MAGNN's: the capped metapath DFS emits all of one
// middle vertex's ends in a row, so consecutive instances share their
// first w − 1 leaves (the prefix runs of DESIGN.md §20). Covers runs of up
// to 32 instances (across 16-lane groups), a run broken by a change of
// width, two instances that differ only in leaf w − 2, widths 0, 1, 2, 3
// and 4, a prefix shared across a slot boundary (a run for pass B only),
// an empty slot, and an instance whose only member is row 0.
inline InstanceSlots MagnnShapedSlots(int64_t vertices, Rng& rng) {
  const auto v = [&] {
    return static_cast<uint32_t>(1 + rng.NextBounded(static_cast<uint64_t>(vertices - 1)));
  };
  // `count` instances: `prefix`, then a random last leaf.
  const auto run = [&](const std::vector<uint32_t>& prefix, int count,
                       std::vector<std::vector<uint32_t>>& slot) {
    for (int r = 0; r < count; ++r) {
      slot.push_back(prefix);
      slot.back().push_back(v());
    }
  };
  InstanceSlots slots(7);
  run({v(), v()}, 32, slots[0]);
  // slots[1] stays empty.
  const uint32_t r = v();
  run({r, v()}, 5, slots[2]);
  run({r}, 2, slots[2]);  // width 3 → 2: the run breaks although leaf 0 repeats
  run({v(), v(), v()}, 3, slots[2]);
  run({}, 3, slots[2]);
  slots[2].push_back({});
  slots[2].push_back({0});
  const uint32_t a = v();
  const uint32_t e = v();
  const uint32_t y = v();
  slots[3].push_back({a, v(), e});
  slots[3].push_back({a, y, e});  // differs from the one before only in leaf w − 2
  run({a, y}, 2, slots[3]);
  run({a, y}, 4, slots[4]);  // the same prefix as the last of slot 3
  run({v(), v()}, 17, slots[5]);
  run({v(), v()}, 20, slots[5]);
  slots[6].push_back({});
  return slots;
}

}  // namespace flexgraph

#endif  // TESTS_TEST_UTIL_H_
