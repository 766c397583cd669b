#include "src/tensor/lstm.h"

#include <cmath>
#include <cstring>

#include "src/tensor/nn.h"
#include "src/util/check.h"

namespace flexgraph {

LstmCell::LstmCell(int64_t input_dim, int64_t hidden_dim, Rng& rng) {
  Tensor wx(input_dim, 4 * hidden_dim);
  Tensor wh(hidden_dim, 4 * hidden_dim);
  XavierUniformFill(wx, rng);
  XavierUniformFill(wh, rng);
  wx_ = Variable::Leaf(std::move(wx), /*requires_grad=*/true);
  wh_ = Variable::Leaf(std::move(wh), /*requires_grad=*/true);
  // Forget-gate bias initialized to 1 (standard practice: remember early).
  Tensor bias(1, 4 * hidden_dim);
  for (int64_t j = hidden_dim; j < 2 * hidden_dim; ++j) {
    bias.At(0, j) = 1.0f;
  }
  bias_ = Variable::Leaf(std::move(bias), /*requires_grad=*/true);
}

void LstmCell::CollectParameters(std::vector<Variable>& params) const {
  params.push_back(wx_);
  params.push_back(wh_);
  params.push_back(bias_);
}

namespace {

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Per-row forward state cached for backpropagation through time.
struct LstmTape {
  // All [m, ...]-shaped, aligned with `values` rows.
  Tensor gates;   // [m, 4h] post-activation (i, f, g, o)
  Tensor cell;    // [m, h] c_t
  Tensor hidden;  // [m, h] h_t
};

}  // namespace

Variable AgSegmentLstm(const Variable& values, std::vector<uint64_t> offsets,
                       const LstmCell& cell) {
  const int64_t d = values.cols();
  const int64_t h = cell.hidden_dim();
  FLEX_CHECK_EQ(d, cell.input_dim());
  const int64_t num_segments = static_cast<int64_t>(offsets.size()) - 1;
  FLEX_CHECK_EQ(static_cast<int64_t>(offsets.back()), values.rows());

  const Tensor& x = values.value();
  const Tensor& wx = cell.wx().value();
  const Tensor& wh = cell.wh().value();
  const Tensor& bias = cell.bias().value();

  auto tape = std::make_shared<LstmTape>();
  tape->gates = Tensor(values.rows(), 4 * h);
  tape->cell = Tensor(values.rows(), h);
  tape->hidden = Tensor(values.rows(), h);

  Tensor out(num_segments, h);
  std::vector<float> z(static_cast<std::size_t>(4 * h));

  for (int64_t s = 0; s < num_segments; ++s) {
    const uint64_t lo = offsets[static_cast<std::size_t>(s)];
    const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
    const float* h_prev = nullptr;  // zero initial state
    const float* c_prev = nullptr;
    for (uint64_t r = lo; r < hi; ++r) {
      const auto row = static_cast<int64_t>(r);
      const float* xrow = x.Row(row);
      // z = x·Wx + h_prev·Wh + b.
      for (int64_t j = 0; j < 4 * h; ++j) {
        z[static_cast<std::size_t>(j)] = bias.At(0, j);
      }
      for (int64_t k = 0; k < d; ++k) {
        const float xv = xrow[k];
        const float* wrow = wx.Row(k);
        for (int64_t j = 0; j < 4 * h; ++j) {
          z[static_cast<std::size_t>(j)] += xv * wrow[j];
        }
      }
      if (h_prev != nullptr) {
        for (int64_t k = 0; k < h; ++k) {
          const float hv = h_prev[k];
          const float* wrow = wh.Row(k);
          for (int64_t j = 0; j < 4 * h; ++j) {
            z[static_cast<std::size_t>(j)] += hv * wrow[j];
          }
        }
      }
      float* grow = tape->gates.Row(row);
      float* crow = tape->cell.Row(row);
      float* hrow = tape->hidden.Row(row);
      for (int64_t j = 0; j < h; ++j) {
        const float i_g = Sigmoid(z[static_cast<std::size_t>(j)]);
        const float f_g = Sigmoid(z[static_cast<std::size_t>(h + j)]);
        const float g_g = std::tanh(z[static_cast<std::size_t>(2 * h + j)]);
        const float o_g = Sigmoid(z[static_cast<std::size_t>(3 * h + j)]);
        grow[j] = i_g;
        grow[h + j] = f_g;
        grow[2 * h + j] = g_g;
        grow[3 * h + j] = o_g;
        const float c_in = c_prev != nullptr ? c_prev[j] : 0.0f;
        crow[j] = f_g * c_in + i_g * g_g;
        hrow[j] = o_g * std::tanh(crow[j]);
      }
      h_prev = hrow;
      c_prev = crow;
    }
    if (hi > lo) {
      std::memcpy(out.Row(s), tape->hidden.Row(static_cast<int64_t>(hi - 1)),
                  static_cast<std::size_t>(h) * sizeof(float));
    }
  }

  auto vn = values.node();
  auto wxn = cell.wx().node();
  auto whn = cell.wh().node();
  auto bn = cell.bias().node();
  auto offs = std::make_shared<std::vector<uint64_t>>(std::move(offsets));
  Variable wx_var = cell.wx();
  Variable wh_var = cell.wh();
  Variable bias_var = cell.bias();

  return MakeVariable(
      std::move(out), {values, wx_var, wh_var, bias_var},
      [vn, wxn, whn, bn, offs, tape, d, h](AgNode& self) {
        const Tensor& grad_out = self.grad();
        const Tensor& x_val = vn->value();
        const Tensor& wx_val = wxn->value();
        const Tensor& wh_val = whn->value();

        Tensor gx(x_val.rows(), d);
        Tensor gwx(wx_val.rows(), wx_val.cols());
        Tensor gwh(wh_val.rows(), wh_val.cols());
        Tensor gb(1, 4 * h);

        std::vector<float> dh(static_cast<std::size_t>(h));
        std::vector<float> dc(static_cast<std::size_t>(h));
        std::vector<float> dz(static_cast<std::size_t>(4 * h));

        const int64_t num_back_segments = static_cast<int64_t>(offs->size()) - 1;
        for (int64_t s = 0; s < num_back_segments; ++s) {
          const uint64_t lo = (*offs)[static_cast<std::size_t>(s)];
          const uint64_t hi = (*offs)[static_cast<std::size_t>(s) + 1];
          if (lo == hi) {
            continue;
          }
          // Seed from the output gradient at the last timestep.
          for (int64_t j = 0; j < h; ++j) {
            dh[static_cast<std::size_t>(j)] = grad_out.At(s, j);
            dc[static_cast<std::size_t>(j)] = 0.0f;
          }
          for (uint64_t r = hi; r-- > lo;) {
            const auto row = static_cast<int64_t>(r);
            const float* grow = tape->gates.Row(row);
            const float* crow = tape->cell.Row(row);
            const float* c_prev =
                r > lo ? tape->cell.Row(row - 1) : nullptr;
            const float* h_prev =
                r > lo ? tape->hidden.Row(row - 1) : nullptr;
            for (int64_t j = 0; j < h; ++j) {
              const float i_g = grow[j];
              const float f_g = grow[h + j];
              const float g_g = grow[2 * h + j];
              const float o_g = grow[3 * h + j];
              const float tc = std::tanh(crow[j]);
              const float dh_j = dh[static_cast<std::size_t>(j)];
              float dc_j = dc[static_cast<std::size_t>(j)] + dh_j * o_g * (1.0f - tc * tc);
              const float do_g = dh_j * tc;
              const float di = dc_j * g_g;
              const float df = dc_j * (c_prev != nullptr ? c_prev[j] : 0.0f);
              const float dg = dc_j * i_g;
              dz[static_cast<std::size_t>(j)] = di * i_g * (1.0f - i_g);
              dz[static_cast<std::size_t>(h + j)] = df * f_g * (1.0f - f_g);
              dz[static_cast<std::size_t>(2 * h + j)] = dg * (1.0f - g_g * g_g);
              dz[static_cast<std::size_t>(3 * h + j)] = do_g * o_g * (1.0f - o_g);
              dc[static_cast<std::size_t>(j)] = dc_j * f_g;  // flows to t-1
            }
            // Parameter and input gradients: dWx += xᵀ·dz, dWh += h_prevᵀ·dz,
            // db += dz, dx = dz·Wxᵀ, dh_prev = dz·Whᵀ.
            const float* xrow = x_val.Row(row);
            float* gxrow = gx.Row(row);
            for (int64_t j = 0; j < 4 * h; ++j) {
              gb.At(0, j) += dz[static_cast<std::size_t>(j)];
            }
            for (int64_t k = 0; k < d; ++k) {
              const float* wrow = wx_val.Row(k);
              float* gwrow = gwx.Row(k);
              float acc = 0.0f;
              for (int64_t j = 0; j < 4 * h; ++j) {
                acc += dz[static_cast<std::size_t>(j)] * wrow[j];
                gwrow[j] += xrow[k] * dz[static_cast<std::size_t>(j)];
              }
              gxrow[k] += acc;
            }
            if (h_prev != nullptr) {
              for (int64_t k = 0; k < h; ++k) {
                const float* wrow = wh_val.Row(k);
                float* gwrow = gwh.Row(k);
                float acc = 0.0f;
                for (int64_t j = 0; j < 4 * h; ++j) {
                  acc += dz[static_cast<std::size_t>(j)] * wrow[j];
                  gwrow[j] += h_prev[k] * dz[static_cast<std::size_t>(j)];
                }
                dh[static_cast<std::size_t>(k)] = acc;
              }
            }
          }
        }
        if (vn->requires_grad()) {
          vn->AccumulateGrad(std::move(gx));
        }
        wxn->AccumulateGrad(std::move(gwx));
        whn->AccumulateGrad(std::move(gwh));
        bn->AccumulateGrad(std::move(gb));
      });
}

}  // namespace flexgraph
