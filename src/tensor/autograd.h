// Tape-based reverse-mode autodiff over Tensor.
//
// A Variable wraps a shared node holding the forward value, the accumulated
// gradient, its parents and a backward closure. Backward() topologically
// sorts the reachable graph and pushes gradients parent-ward. This replaces
// the role PyTorch's autograd plays in the paper's stack; the hybrid executor
// in src/core registers its fused kernels as custom ops through MakeVariable.
#ifndef SRC_TENSOR_AUTOGRAD_H_
#define SRC_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/tensor/ops_sparse.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"

namespace flexgraph {

class AgNode;
using AgNodePtr = std::shared_ptr<AgNode>;

// Shared immutable index metadata (an ExecutionPlan's precompiled vectors, or
// the per-call ones the by-value overloads wrap). Ops hold these by shared_ptr
// so steady-state epochs copy no index data.
using U32VecPtr = std::shared_ptr<const std::vector<uint32_t>>;
using U64VecPtr = std::shared_ptr<const std::vector<uint64_t>>;
using I64VecPtr = std::shared_ptr<const std::vector<int64_t>>;

class AgNode {
 public:
  AgNode(Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const Tensor& value() const { return value_; }
  Tensor& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }

  // Lazily-allocated (zeroed) gradient with the value's shape. Drawn from
  // the active workspace arena when a scope is open (gradients die with the
  // epoch's graph, before the next Reset), from the heap otherwise.
  Tensor& grad() {
    if (!grad_.SameShape(value_)) {
      grad_ = WsTensor(value_.rows(), value_.cols());
    }
    return grad_;
  }

  bool has_grad() const { return grad_.SameShape(value_); }

  // Adds g into the gradient. The first contribution becomes the gradient
  // without a zero fill: the rvalue overload adopts g's buffer, the const&
  // overload copies g into a fresh one. Backward closures pass the tensors
  // they create as rvalues.
  void AccumulateGrad(const Tensor& g);
  void AccumulateGrad(Tensor&& g);
  void ZeroGrad() { grad_ = Tensor(); }

  // Internal wiring used by op constructors.
  std::vector<AgNodePtr>& parents() { return parents_; }
  const std::vector<AgNodePtr>& parents() const { return parents_; }
  void set_backward(std::function<void(AgNode&)> fn) { backward_ = std::move(fn); }
  const std::function<void(AgNode&)>& backward_fn() const { return backward_; }

 private:
  Tensor value_;
  Tensor grad_;
  bool requires_grad_;
  std::vector<AgNodePtr> parents_;
  std::function<void(AgNode&)> backward_;
};

class Variable {
 public:
  Variable() = default;
  explicit Variable(AgNodePtr node) : node_(std::move(node)) {}

  // A leaf variable (input or parameter).
  static Variable Leaf(Tensor value, bool requires_grad = false) {
    return Variable(std::make_shared<AgNode>(std::move(value), requires_grad));
  }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value(); }
  Tensor& mutable_value() { return node_->mutable_value(); }
  Tensor& grad() { return node_->grad(); }
  bool requires_grad() const { return node_->requires_grad(); }
  void ZeroGrad() { node_->ZeroGrad(); }

  AgNodePtr node() const { return node_; }

  int64_t rows() const { return node_->value().rows(); }
  int64_t cols() const { return node_->value().cols(); }

  // Runs the full backward pass from this (typically scalar-loss) variable.
  // seed defaults to ones with this variable's shape.
  void Backward() const;
  void Backward(const Tensor& seed) const;

 private:
  AgNodePtr node_;
};

// Builds a non-leaf variable with an explicit backward closure. The node
// requires a gradient iff one of its parents does; only then does it keep its
// parents and the closure, so backward never runs on a subgraph that cannot
// reach a trainable leaf (e.g. aggregation of the input features). The
// closure receives the output node (self.grad() is the upstream gradient)
// and must AccumulateGrad into the parents that require it. This is the
// extension point the hybrid execution engine uses.
Variable MakeVariable(Tensor value, std::vector<Variable> parents,
                      std::function<void(AgNode&)> backward);

// ---- Differentiable ops (thin wrappers over src/tensor kernels) ----

Variable AgMatMul(const Variable& x, const Variable& w);
Variable AgAdd(const Variable& a, const Variable& b);
Variable AgAddBias(const Variable& x, const Variable& bias);
Variable AgRelu(const Variable& x);
// max(x, slope·x) with slope ∈ (0, 1) — GAT's attention nonlinearity.
Variable AgLeakyRelu(const Variable& x, float slope = 0.2f);
Variable AgConcatCols(const Variable& a, const Variable& b);
Variable AgScale(const Variable& x, float s);

// Inverted dropout (training mode): zeroes each element with probability p
// and scales survivors by 1/(1-p); the same mask gates the backward pass.
// Callers skip the op entirely at inference time.
Variable AgDropout(const Variable& x, float p, Rng& rng);

// Row gather / scatter (COO aggregation path). Scatter supports kSum/kMean.
// The shared_ptr overloads reference an index that outlives the call (an
// ExecutionPlan's), never copying it; the by-value overloads take ownership
// of an index built for this one call.
Variable AgGatherRows(const Variable& x, std::vector<uint32_t> index);
Variable AgGatherRows(const Variable& x, U32VecPtr index);
Variable AgScatter(const Variable& values, std::vector<uint32_t> index, int64_t out_rows,
                   ReduceKind kind);
Variable AgScatter(const Variable& values, U32VecPtr index, int64_t out_rows, ReduceKind kind);

// Segment (CSC-offset) reductions — kSum/kMean. `chunks` (optional) are the
// plan's fixed segment-aligned parallel chunk boundaries.
Variable AgSegmentReduce(const Variable& values, std::vector<uint64_t> offsets, ReduceKind kind);
Variable AgSegmentReduce(const Variable& values, U64VecPtr offsets, ReduceKind kind,
                         I64VecPtr chunks = nullptr);
// Segment max with a proper backward: the gradient routes to the arg-max row
// of each (segment, column), matching max-pool semantics (GraphSAGE-pool).
Variable AgSegmentMax(const Variable& values, std::vector<uint64_t> offsets);
Variable AgSegmentMax(const Variable& values, U64VecPtr offsets);
// Softmax of [m,1] scores within segments, e.g. MAGNN's scatter_softmax.
Variable AgSegmentSoftmax(const Variable& scores, std::vector<uint64_t> offsets);
Variable AgSegmentSoftmax(const Variable& scores, U64VecPtr offsets, I64VecPtr chunks = nullptr);
// Rows of values scaled by [m,1] weights.
Variable AgMulRowScalar(const Variable& values, const Variable& weights);

// Dense schema-level reductions (paper Figure 10) — group consecutive rows.
Variable AgGroupSum(const Variable& x, int64_t group);
Variable AgGroupMean(const Variable& x, int64_t group);

// Batch normalization over the row (batch) axis with learnable per-column
// scale γ [1,d] and shift β [1,d]. Always uses the batch statistics (full-
// batch GNN training has no train/eval statistics split). GIN's MLPs rely on
// this to keep un-normalized sum aggregation stable.
Variable AgBatchNorm(const Variable& x, const Variable& gamma, const Variable& beta,
                     float eps = 1e-5f);

// Mean softmax-cross-entropy over rows; labels index the true class.
// Returns a [1,1] loss.
Variable AgSoftmaxCrossEntropy(const Variable& logits, std::vector<uint32_t> labels);

}  // namespace flexgraph

#endif  // SRC_TENSOR_AUTOGRAD_H_
