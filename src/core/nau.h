// NAU — the three-stage GNN programming abstraction (paper §3.2, Figure 4):
//
//   NeighborSelection(g, schema, nbr_udf) → HDGs
//   Aggregation(feas⁽ᵏ⁻¹⁾, HDGs)          → nbr_feas⁽ᵏ⁾
//   Update(feas⁽ᵏ⁻¹⁾, nbr_feas⁽ᵏ⁾)        → feas⁽ᵏ⁾
//
// A GnnModel supplies a schema tree, a neighbor-selection UDF (how each root
// retrieves its "neighbors" from the input graph — Figure 5), an HDG cache
// policy (HDGs may be shared across layers, epochs, or the whole training,
// §3.2 Discussion), and a stack of layers, each implementing Aggregation
// (against an HdgAggregator) and Update (dense NN ops only).
#ifndef SRC_CORE_NAU_H_
#define SRC_CORE_NAU_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/aggregation.h"
#include "src/graph/csr_graph.h"
#include "src/hdg/hdg.h"
#include "src/hdg/schema_tree.h"
#include "src/tensor/autograd.h"
#include "src/util/rng.h"

namespace flexgraph {

// How long an HDG stays valid (paper §3.2 Discussion):
//   kStatic   — neighbors don't change across training (GCN, MAGNN, JK-Net):
//               build once, reuse for the whole run.
//   kPerEpoch — stochastic neighbor selection (PinSage's random walks):
//               rebuild at the start of every epoch, share across layers.
enum class HdgCachePolicy {
  kStatic,
  kPerEpoch,
};

struct NeighborSelectionContext {
  const CsrGraph& graph;
  Rng& rng;
};

// Called once per root; appends that root's neighbor records to the builder.
//
// Concurrency contract: NeighborSelection calls the function concurrently for
// different roots, each call with its own Rng and record buffer. It must
// share no mutable state between calls: what it emits for a root, and the
// draws it takes, may depend only on the graph, the root and ctx.rng.
using NeighborFn =
    std::function<void(const NeighborSelectionContext&, VertexId root, HdgBuilder&)>;

// The number of draws (Rng::NextU64 calls; NextBounded takes one) that a
// NeighborFn takes from ctx.rng for `root`.
using DrawCountFn = std::function<uint64_t(const CsrGraph&, VertexId root)>;

// A model's neighbor UDF: the per-root function plus the draws it declares,
// kept together so a declaration always describes the function it travels
// with. NeighborSelection places each chunk of roots on the random stream by
// the declared draws and re-runs, in root order, a chunk whose start it got
// wrong: a wrong declaration costs time, never a different HDG.
//
// The cost: a UDF that draws from ctx.rng without declaring its draws (a
// plain lambda that samples, say) runs every chunk after the second twice,
// so at one thread its selection takes about twice as long as a serial loop.
// A UDF that draws declares its draws with the two-argument constructor.
class NeighborUdf {
 public:
  NeighborUdf() = default;

  // A function that draws nothing. Implicit, so a plain function or lambda
  // converts as it always has (paper Figure 5). One that does draw is still
  // correct but pays the re-runs described above.
  template <typename Fn,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<Fn>, NeighborUdf> &&
                                        std::is_constructible_v<NeighborFn, Fn>>>
  NeighborUdf(Fn&& fn) : fn_(std::forward<Fn>(fn)) {}

  NeighborUdf(NeighborFn fn, DrawCountFn draws) : fn_(std::move(fn)), draws_(std::move(draws)) {}

  void operator()(const NeighborSelectionContext& ctx, VertexId root, HdgBuilder& builder) const {
    fn_(ctx, root, builder);
  }

  explicit operator bool() const { return static_cast<bool>(fn_); }

  uint64_t DeclaredDraws(const CsrGraph& graph, VertexId root) const {
    return draws_ ? draws_(graph, root) : 0;
  }

 private:
  NeighborFn fn_;
  DrawCountFn draws_;
};

// One GNN layer: the Aggregation and Update stages. Aggregation receives the
// previous layer's features for *all graph vertices* plus an aggregator bound
// to the HDGs and the active execution strategy.
class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  virtual Variable Aggregate(const Variable& feats, const HdgAggregator& agg) const = 0;
  virtual Variable Update(const Variable& feats, const Variable& nbr_feats) const = 0;

  // Appends trainable parameters (default: none).
  virtual void CollectParameters(std::vector<Variable>& params) const;
};

struct GnnModel {
  std::string name;
  SchemaTree schema = SchemaTree::Flat();
  HdgCachePolicy cache_policy = HdgCachePolicy::kStatic;
  NeighborUdf neighbor_udf;
  // DNFA fast path (paper §7.8): when the neighborhood is exactly the 1-hop
  // in-neighbors, the input graph *is* the HDG — engines slice the adjacency
  // directly instead of running the UDF + record sort.
  bool hdg_from_input_graph = false;
  // False when the bottom-level aggregator is order-dependent (e.g. LSTM).
  // Partial aggregation is then unavailable and the distributed runtime uses
  // batched raw communication (paper §5, last paragraph).
  bool bottom_reduce_commutative = true;
  std::vector<std::unique_ptr<GnnLayer>> layers;

  std::vector<Variable> Parameters() const;
};

}  // namespace flexgraph

#endif  // SRC_CORE_NAU_H_
