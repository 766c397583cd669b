#include "src/tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/obs/prof.h"
#include "src/tensor/ops_dense.h"
#include "src/util/check.h"

namespace flexgraph {

void AgNode::AccumulateGrad(const Tensor& g) {
  FLEX_CHECK(g.SameShape(value_));
  if (has_grad()) {
    AddInPlace(grad_, g);
  } else {
    grad_ = WsTensorCopy(g);
  }
}

void AgNode::AccumulateGrad(Tensor&& g) {
  FLEX_CHECK(g.SameShape(value_));
  if (has_grad()) {
    AddInPlace(grad_, g);
  } else {
    grad_ = std::move(g);
  }
}

namespace {

// Post-order DFS producing a topological order (parents before children when
// reversed). Iterative to survive deep layer chains.
void TopoSort(const AgNodePtr& root, std::vector<AgNode*>& order) {
  std::unordered_set<AgNode*> visited;
  std::vector<std::pair<AgNode*, std::size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents().size()) {
      AgNode* parent = node->parents()[next_child].get();
      ++next_child;
      if (visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() const {
  Tensor seed = WsTensorUninit(rows(), cols());
  std::fill(seed.data(), seed.data() + seed.numel(), 1.0f);
  Backward(seed);
}

void Variable::Backward(const Tensor& seed) const {
  FLEX_CHECK(defined());
  node_->AccumulateGrad(seed);
  std::vector<AgNode*> order;
  TopoSort(node_, order);
  // order is post-order (leaves first); run children before parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    AgNode* node = *it;
    if (node->backward_fn() && node->has_grad()) {
      node->backward_fn()(*node);
    }
  }
}

Variable MakeVariable(Tensor value, std::vector<Variable> parents,
                      std::function<void(AgNode&)> backward) {
  bool any_grad = false;
  for (const auto& p : parents) {
    any_grad = any_grad || p.requires_grad();
  }
  auto node = std::make_shared<AgNode>(std::move(value), any_grad);
  if (any_grad) {
    for (auto& p : parents) {
      node->parents().push_back(p.node());
    }
    node->set_backward(std::move(backward));
  }
  return Variable(std::move(node));
}

Variable AgMatMul(const Variable& x, const Variable& w) {
  Tensor out = MatMul(x.value(), w.value());
  auto xn = x.node();
  auto wn = w.node();
  return MakeVariable(std::move(out), {x, w}, [xn, wn](AgNode& self) {
    if (xn->requires_grad()) {
      xn->AccumulateGrad(MatMulTransB(self.grad(), wn->value()));
    }
    if (wn->requires_grad()) {
      wn->AccumulateGrad(MatMulTransA(xn->value(), self.grad()));
    }
  });
}

Variable AgAdd(const Variable& a, const Variable& b) {
  Tensor out = Add(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeVariable(std::move(out), {a, b}, [an, bn](AgNode& self) {
    if (an->requires_grad()) {
      an->AccumulateGrad(self.grad());
    }
    if (bn->requires_grad()) {
      bn->AccumulateGrad(self.grad());
    }
  });
}

Variable AgAddBias(const Variable& x, const Variable& bias) {
  Tensor out = AddRowVector(x.value(), bias.value());
  auto xn = x.node();
  auto bn = bias.node();
  return MakeVariable(std::move(out), {x, bias}, [xn, bn](AgNode& self) {
    if (xn->requires_grad()) {
      xn->AccumulateGrad(self.grad());
    }
    if (bn->requires_grad()) {
      bn->AccumulateGrad(ColSum(self.grad()));
    }
  });
}

Variable AgRelu(const Variable& x) {
  Tensor out = Relu(x.value());
  auto xn = x.node();
  return MakeVariable(std::move(out), {x}, [xn](AgNode& self) {
    xn->AccumulateGrad(ReluBackward(self.grad(), self.value()));
  });
}

Variable AgLeakyRelu(const Variable& x, float slope) {
  FLEX_CHECK_GT(slope, 0.0f);
  FLEX_CHECK_LT(slope, 1.0f);
  Tensor out = WsTensorUninit(x.rows(), x.cols());
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float v = x.value().data()[i];
    out.data()[i] = v > 0.0f ? v : slope * v;
  }
  auto xn = x.node();
  return MakeVariable(std::move(out), {x}, [xn, slope](AgNode& self) {
    Tensor g = WsTensorUninit(self.grad().rows(), self.grad().cols());
    for (int64_t i = 0; i < g.numel(); ++i) {
      g.data()[i] = self.grad().data()[i] * (xn->value().data()[i] > 0.0f ? 1.0f : slope);
    }
    xn->AccumulateGrad(std::move(g));
  });
}

Variable AgConcatCols(const Variable& a, const Variable& b) {
  Tensor out = ConcatCols(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  const int64_t split = a.cols();
  return MakeVariable(std::move(out), {a, b}, [an, bn, split](AgNode& self) {
    if (an->requires_grad()) {
      an->AccumulateGrad(SliceCols(self.grad(), 0, split));
    }
    if (bn->requires_grad()) {
      bn->AccumulateGrad(SliceCols(self.grad(), split, self.grad().cols()));
    }
  });
}

Variable AgScale(const Variable& x, float s) {
  Tensor out = Scale(x.value(), s);
  auto xn = x.node();
  return MakeVariable(std::move(out), {x}, [xn, s](AgNode& self) {
    xn->AccumulateGrad(Scale(self.grad(), s));
  });
}

Variable AgDropout(const Variable& x, float p, Rng& rng) {
  FLEX_CHECK_GE(p, 0.0f);
  FLEX_CHECK_LT(p, 1.0f);
  if (p == 0.0f) {
    return x;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<Tensor>(WsTensorUninit(x.rows(), x.cols()));
  Tensor out = WsTensorUninit(x.rows(), x.cols());
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float m = rng.NextFloat() < p ? 0.0f : keep_scale;
    mask->data()[i] = m;
    out.data()[i] = x.value().data()[i] * m;
  }
  auto xn = x.node();
  return MakeVariable(std::move(out), {x}, [xn, mask](AgNode& self) {
    xn->AccumulateGrad(Hadamard(self.grad(), *mask));
  });
}

Variable AgGatherRows(const Variable& x, U32VecPtr index) {
  Tensor out = GatherRows(x.value(), *index);
  auto xn = x.node();
  const int64_t src_rows = x.rows();
  return MakeVariable(std::move(out), {x}, [xn, index, src_rows](AgNode& self) {
    xn->AccumulateGrad(Scatter(self.grad(), *index, src_rows, ReduceKind::kSum));
  });
}

Variable AgGatherRows(const Variable& x, std::vector<uint32_t> index) {
  return AgGatherRows(x, std::make_shared<const std::vector<uint32_t>>(std::move(index)));
}

Variable AgScatter(const Variable& values, U32VecPtr index, int64_t out_rows, ReduceKind kind) {
  FLEX_CHECK_MSG(kind == ReduceKind::kSum || kind == ReduceKind::kMean,
                 "autograd scatter supports sum/mean only");
  Tensor out = Scatter(values.value(), *index, out_rows, kind);
  auto vn = values.node();
  return MakeVariable(std::move(out), {values}, [vn, index, out_rows, kind](AgNode& self) {
    Tensor g = GatherRows(self.grad(), *index);
    if (kind == ReduceKind::kMean) {
      const std::vector<uint32_t> counts = ScatterCounts(*index, out_rows);
      for (int64_t i = 0; i < g.rows(); ++i) {
        const float inv =
            1.0f / static_cast<float>(counts[(*index)[static_cast<std::size_t>(i)]]);
        float* grow = g.Row(i);
        for (int64_t j = 0; j < g.cols(); ++j) {
          grow[j] *= inv;
        }
      }
    }
    vn->AccumulateGrad(std::move(g));
  });
}

Variable AgScatter(const Variable& values, std::vector<uint32_t> index, int64_t out_rows,
                   ReduceKind kind) {
  return AgScatter(values, std::make_shared<const std::vector<uint32_t>>(std::move(index)),
                   out_rows, kind);
}

namespace {

std::span<const int64_t> ChunkSpan(const I64VecPtr& chunks) {
  return chunks ? std::span<const int64_t>(*chunks) : std::span<const int64_t>{};
}

// Broadcast segment-level gradients back to member rows; divides by segment
// size for mean. Every row belongs to exactly one segment, so parallelizing
// over segment chunks is race-free and each element is written exactly once.
Tensor SegmentBroadcastBackward(const Tensor& grad_out, const std::vector<uint64_t>& offsets,
                                ReduceKind kind, std::span<const int64_t> chunks) {
  const int64_t total = static_cast<int64_t>(offsets.back());
  Tensor g = WsTensorUninit(total, grad_out.cols());
  const bool prof = simd::KernelProfilingEnabled();
  const auto broadcast_range = [&](int64_t s_lo, int64_t s_hi) {
    // Each member row reads its segment's gradient row once (broadcast
    // operands count per output element) and applies one scale multiply.
    const int64_t m =
        static_cast<int64_t>(offsets[static_cast<std::size_t>(s_hi)] -
                             offsets[static_cast<std::size_t>(s_lo)]) *
        grad_out.cols();
    obs::TimedKernelScope scope(obs::ProfKernel::kElementwise, m * 4, m * 4, m, prof);
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
      const float scale =
          kind == ReduceKind::kMean && hi > lo ? 1.0f / static_cast<float>(hi - lo) : 1.0f;
      const float* orow = grad_out.Row(s);
      for (uint64_t r = lo; r < hi; ++r) {
        float* grow = g.Row(static_cast<int64_t>(r));
        for (int64_t j = 0; j < grad_out.cols(); ++j) {
          grow[j] = orow[j] * scale;
        }
      }
    }
  };
  exec::ForEachSegmentChunk(offsets, chunks, total * grad_out.cols(), broadcast_range);
  return g;
}

// dL/dw_i = <g_i, v_i> for a row scaled by the scalar w_i: an FMA chain
// from +0, spelled out so its bits do not depend on whether the compiler
// contracts a multiply-add (or on the build host having FMA). The
// instance-attention kernels' gα (src/exec/simd_body.h) runs the same chain.
float RowDot(const float* g, const float* v, int64_t d) {
  float acc = 0.0f;
  for (int64_t j = 0; j < d; ++j) {
    acc = std::fma(g[j], v[j], acc);
  }
  return acc;
}

}  // namespace

Variable AgSegmentReduce(const Variable& values, U64VecPtr offsets, ReduceKind kind,
                         I64VecPtr chunks) {
  FLEX_CHECK_MSG(kind == ReduceKind::kSum || kind == ReduceKind::kMean,
                 "autograd segment reduce supports sum/mean only");
  Tensor out = chunks ? SegmentReduce(values.value(), *offsets, kind, *chunks)
                      : SegmentReduce(values.value(), *offsets, kind);
  auto vn = values.node();
  return MakeVariable(std::move(out), {values}, [vn, offsets, chunks, kind](AgNode& self) {
    vn->AccumulateGrad(SegmentBroadcastBackward(self.grad(), *offsets, kind, ChunkSpan(chunks)));
  });
}

Variable AgSegmentReduce(const Variable& values, std::vector<uint64_t> offsets, ReduceKind kind) {
  return AgSegmentReduce(values, std::make_shared<const std::vector<uint64_t>>(std::move(offsets)),
                         kind, nullptr);
}

Variable AgSegmentMax(const Variable& values, U64VecPtr offsets_ptr) {
  const std::vector<uint64_t>& offsets = *offsets_ptr;
  const int64_t d = values.cols();
  const int64_t num_segments = static_cast<int64_t>(offsets.size()) - 1;
  FLEX_CHECK_EQ(static_cast<int64_t>(offsets.back()), values.rows());

  // Forward with recorded argmax per (segment, column) so backward can route
  // the gradient to exactly the winning row.
  Tensor out = WsTensor(num_segments, d);
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<std::size_t>(num_segments * d), int64_t{-1});
  for (int64_t s = 0; s < num_segments; ++s) {
    const uint64_t lo = offsets[static_cast<std::size_t>(s)];
    const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
    if (lo == hi) {
      continue;  // empty segment: zero output, no gradient
    }
    float* orow = out.Row(s);
    for (int64_t j = 0; j < d; ++j) {
      float best = values.value().At(static_cast<int64_t>(lo), j);
      int64_t best_row = static_cast<int64_t>(lo);
      for (uint64_t r = lo + 1; r < hi; ++r) {
        const float v = values.value().At(static_cast<int64_t>(r), j);
        if (v > best) {
          best = v;
          best_row = static_cast<int64_t>(r);
        }
      }
      orow[j] = best;
      (*argmax)[static_cast<std::size_t>(s * d + j)] = best_row;
    }
  }

  auto vn = values.node();
  const int64_t rows = values.rows();
  return MakeVariable(std::move(out), {values}, [vn, argmax, rows, d](AgNode& self) {
    Tensor g = WsTensor(rows, d);
    const Tensor& grad_out = self.grad();
    for (int64_t s = 0; s < grad_out.rows(); ++s) {
      for (int64_t j = 0; j < d; ++j) {
        const int64_t src = (*argmax)[static_cast<std::size_t>(s * d + j)];
        if (src >= 0) {
          g.At(src, j) += grad_out.At(s, j);
        }
      }
    }
    vn->AccumulateGrad(std::move(g));
  });
}

Variable AgSegmentMax(const Variable& values, std::vector<uint64_t> offsets) {
  return AgSegmentMax(values, std::make_shared<const std::vector<uint64_t>>(std::move(offsets)));
}

Variable AgSegmentSoftmax(const Variable& scores, U64VecPtr offsets, I64VecPtr chunks) {
  Tensor out = chunks ? SegmentSoftmax(scores.value(), *offsets, *chunks)
                      : SegmentSoftmax(scores.value(), *offsets);
  auto sn = scores.node();
  return MakeVariable(std::move(out), {scores}, [sn, offsets, chunks](AgNode& self) {
    sn->AccumulateGrad(
        chunks ? SegmentSoftmaxBackward(self.value(), self.grad(), *offsets, *chunks)
               : SegmentSoftmaxBackward(self.value(), self.grad(), *offsets));
  });
}

Variable AgSegmentSoftmax(const Variable& scores, std::vector<uint64_t> offsets) {
  return AgSegmentSoftmax(scores,
                          std::make_shared<const std::vector<uint64_t>>(std::move(offsets)),
                          nullptr);
}

Variable AgMulRowScalar(const Variable& values, const Variable& weights) {
  Tensor out = MulRowScalar(values.value(), weights.value());
  auto vn = values.node();
  auto wn = weights.node();
  return MakeVariable(std::move(out), {values, weights}, [vn, wn](AgNode& self) {
    const Tensor& g = self.grad();
    if (vn->requires_grad()) {
      vn->AccumulateGrad(MulRowScalar(g, wn->value()));
    }
    if (wn->requires_grad()) {
      Tensor wg = WsTensorUninit(g.rows(), 1);
      {
        // Row-dot: multiply-accumulate over every element of both operands.
        // Closed before AccumulateGrad, whose AddInPlace times itself.
        obs::TimedKernelScope scope(obs::ProfKernel::kElementwise, 2 * g.numel() * 4,
                                    g.rows() * 4, 2 * g.numel(),
                                    simd::KernelProfilingEnabled());
        for (int64_t i = 0; i < g.rows(); ++i) {
          wg.At(i, 0) = RowDot(g.Row(i), vn->value().Row(i), g.cols());
        }
      }
      wn->AccumulateGrad(std::move(wg));
    }
  });
}

Variable AgGroupSum(const Variable& x, int64_t group) {
  Tensor out = GroupSumRows(x.value(), group);
  auto xn = x.node();
  return MakeVariable(std::move(out), {x}, [xn, group](AgNode& self) {
    xn->AccumulateGrad(GroupSumRowsBackward(self.grad(), group));
  });
}

Variable AgGroupMean(const Variable& x, int64_t group) {
  Tensor out = GroupMeanRows(x.value(), group);
  auto xn = x.node();
  return MakeVariable(std::move(out), {x}, [xn, group](AgNode& self) {
    Tensor g = GroupSumRowsBackward(self.grad(), group);
    ScaleInPlace(g, 1.0f / static_cast<float>(group));
    xn->AccumulateGrad(std::move(g));
  });
}

Variable AgBatchNorm(const Variable& x, const Variable& gamma, const Variable& beta,
                     float eps) {
  FLEX_CHECK_EQ(gamma.rows(), 1);
  FLEX_CHECK_EQ(gamma.cols(), x.cols());
  FLEX_CHECK_EQ(beta.rows(), 1);
  FLEX_CHECK_EQ(beta.cols(), x.cols());
  const int64_t n = x.rows();
  const int64_t d = x.cols();
  FLEX_CHECK_GT(n, 0);

  // Per-column mean / variance, normalized values cached for backward.
  auto mean = std::make_shared<Tensor>(WsTensorUninit(1, d));
  auto inv_std = std::make_shared<Tensor>(WsTensorUninit(1, d));
  auto normalized = std::make_shared<Tensor>(WsTensorUninit(n, d));
  for (int64_t j = 0; j < d; ++j) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      acc += x.value().At(i, j);
    }
    const float mu = static_cast<float>(acc / static_cast<double>(n));
    double var = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const float dx = x.value().At(i, j) - mu;
      var += static_cast<double>(dx) * dx;
    }
    mean->At(0, j) = mu;
    inv_std->At(0, j) =
        1.0f / std::sqrt(static_cast<float>(var / static_cast<double>(n)) + eps);
  }
  Tensor out = WsTensorUninit(n, d);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      const float xhat = (x.value().At(i, j) - mean->At(0, j)) * inv_std->At(0, j);
      normalized->At(i, j) = xhat;
      out.At(i, j) = gamma.value().At(0, j) * xhat + beta.value().At(0, j);
    }
  }

  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return MakeVariable(std::move(out), {x, gamma, beta},
                      [xn, gn, bn, mean, inv_std, normalized, n, d](AgNode& self) {
                        const Tensor& g = self.grad();
                        Tensor dgamma = WsTensorUninit(1, d);
                        Tensor dbeta = WsTensorUninit(1, d);
                        Tensor dx = WsTensorUninit(n, d);
                        for (int64_t j = 0; j < d; ++j) {
                          // Standard batch-norm backward per column.
                          double sum_dy = 0.0;
                          double sum_dy_xhat = 0.0;
                          for (int64_t i = 0; i < n; ++i) {
                            sum_dy += g.At(i, j);
                            sum_dy_xhat +=
                                static_cast<double>(g.At(i, j)) * normalized->At(i, j);
                          }
                          dbeta.At(0, j) = static_cast<float>(sum_dy);
                          dgamma.At(0, j) = static_cast<float>(sum_dy_xhat);
                          const float gamma_v = gn->value().At(0, j);
                          const float istd = inv_std->At(0, j);
                          const float inv_n = 1.0f / static_cast<float>(n);
                          for (int64_t i = 0; i < n; ++i) {
                            const float xhat = normalized->At(i, j);
                            dx.At(i, j) =
                                gamma_v * istd *
                                (g.At(i, j) - static_cast<float>(sum_dy) * inv_n -
                                 xhat * static_cast<float>(sum_dy_xhat) * inv_n);
                          }
                        }
                        if (xn->requires_grad()) {
                          xn->AccumulateGrad(std::move(dx));
                        }
                        if (gn->requires_grad()) {
                          gn->AccumulateGrad(std::move(dgamma));
                        }
                        if (bn->requires_grad()) {
                          bn->AccumulateGrad(std::move(dbeta));
                        }
                      });
}

Variable AgSoftmaxCrossEntropy(const Variable& logits, std::vector<uint32_t> labels) {
  FLEX_CHECK_EQ(static_cast<int64_t>(labels.size()), logits.rows());
  Tensor probs = RowSoftmax(logits.value());
  const int64_t n = logits.rows();
  double loss_acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t y = labels[static_cast<std::size_t>(i)];
    FLEX_CHECK_LT(static_cast<int64_t>(y), logits.cols());
    loss_acc += -std::log(std::max(probs.At(i, static_cast<int64_t>(y)), 1e-12f));
  }
  Tensor loss = WsTensor(1, 1);
  loss.At(0, 0) = static_cast<float>(loss_acc / static_cast<double>(n));

  auto ln = logits.node();
  auto probs_shared = std::make_shared<Tensor>(std::move(probs));
  auto labels_shared = std::make_shared<std::vector<uint32_t>>(std::move(labels));
  return MakeVariable(std::move(loss), {logits}, [ln, probs_shared, labels_shared](AgNode& self) {
    const float upstream = self.grad().At(0, 0);
    const int64_t rows = probs_shared->rows();
    Tensor g = WsTensorCopy(*probs_shared);
    const float inv_n = 1.0f / static_cast<float>(rows);
    {
      // In-place scale of every element plus one label subtract per row.
      const int64_t m = g.numel();
      obs::TimedKernelScope scope(obs::ProfKernel::kElementwise, m * 4, m * 4, m + rows,
                                  simd::KernelProfilingEnabled());
      for (int64_t i = 0; i < rows; ++i) {
        g.At(i, static_cast<int64_t>((*labels_shared)[static_cast<std::size_t>(i)])) -= 1.0f;
        float* grow = g.Row(i);
        for (int64_t j = 0; j < g.cols(); ++j) {
          grow[j] *= inv_n * upstream;
        }
      }
    }
    ln->AccumulateGrad(std::move(g));
  });
}

}  // namespace flexgraph
