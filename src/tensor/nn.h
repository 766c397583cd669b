// Minimal NN toolkit: parameter initialization, the Linear layer used by every
// model's Update stage, and SGD/Adam optimizers.
#ifndef SRC_TENSOR_NN_H_
#define SRC_TENSOR_NN_H_

#include <string>
#include <vector>

#include "src/tensor/autograd.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace flexgraph {

// Glorot/Xavier uniform init over [-limit, limit], limit = sqrt(6/(fan_in+fan_out)).
void XavierUniformFill(Tensor& t, Rng& rng);

// Fully-connected layer y = x W + b with W[in,out], b[1,out].
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in_features, int64_t out_features, Rng& rng);

  Variable Apply(const Variable& x) const;

  int64_t in_features() const { return w_.defined() ? w_.rows() : 0; }
  int64_t out_features() const { return w_.defined() ? w_.cols() : 0; }

  Variable& w() { return w_; }
  Variable& b() { return b_; }
  const Variable& w() const { return w_; }
  const Variable& b() const { return b_; }

  // Appends this layer's parameters to params.
  void CollectParameters(std::vector<Variable>& params) const;

 private:
  Variable w_;
  Variable b_;
};

// Plain SGD with optional L2 weight decay.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(float lr, float weight_decay = 0.0f)
      : lr_(lr), weight_decay_(weight_decay) {}

  void Step(std::vector<Variable>& params) const;
  static void ZeroGrad(std::vector<Variable>& params);

 private:
  float lr_;
  float weight_decay_;
};

// Adam with bias correction; state is held per optimizer instance, keyed by
// parameter order (parameters must be passed in a stable order).
class AdamOptimizer {
 public:
  explicit AdamOptimizer(float lr, float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void Step(std::vector<Variable>& params);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

// Fraction of rows whose argmax matches the label; used by examples.
float Accuracy(const Tensor& logits, const std::vector<uint32_t>& labels);

}  // namespace flexgraph

#endif  // SRC_TENSOR_NN_H_
