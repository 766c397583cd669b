// Scalar (portable C++) kernel variant. This TU builds with
// -ffp-contract=off so its multiply-add pairs match the vector variants,
// which keep mul and add as separate instructions, bit for bit; Fma is
// std::fma, which rounds once like their fused instructions.
#include "src/exec/simd_body.h"

namespace flexgraph {
namespace simd {
namespace {

struct VecScalar {
  using Reg = float;
  static constexpr int64_t kWidth = 1;
  static Reg Load(const float* p) { return *p; }
  static void Store(float* p, Reg v) { *p = v; }
  static Reg Add(Reg a, Reg b) { return a + b; }
  static Reg Mul(Reg a, Reg b) { return a * b; }
  static Reg Fma(Reg a, Reg b, Reg c) { return std::fma(a, b, c); }
  static Reg Max(Reg a, Reg b) { return a > b ? a : b; }
  static Reg Min(Reg a, Reg b) { return a < b ? a : b; }
  static Reg Broadcast(float s) { return s; }
  static Reg Zero() { return 0.0f; }
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) { return a == 0.0f ? acc : acc + p; }
  static void Transpose(Reg*) {}  // one lane: a 1×1 block is its own transpose
};

const KernelTable kTable = detail::MakeTable<VecScalar>(IsaLevel::kScalar, "scalar");

}  // namespace

const KernelTable* GetScalarTable() { return &kTable; }

}  // namespace simd
}  // namespace flexgraph
