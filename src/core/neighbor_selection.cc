#include "src/core/neighbor_selection.h"

#include <algorithm>
#include <exception>
#include <numeric>

#include "src/exec/parallel.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace flexgraph {

namespace {

// Roots per chunk. Fixed, so the chunking, and with it the selection
// counters, never depend on the thread count.
constexpr std::size_t kRootsPerChunk = 256;

// A chunk's place on the random stream: `start` is where the declared draws
// put it, `end` where its run left its own copy of the stream.
struct ChunkStream {
  Rng start;
  Rng end;
  std::exception_ptr error;
};

void SelectNeighbors(const NeighborUdf& udf, const CsrGraph& graph,
                     std::span<const VertexId> roots, Rng& rng, HdgBuilder& records) {
  const NeighborSelectionContext ctx{graph, rng};
  for (VertexId root : roots) {
    udf(ctx, root, records);
  }
}

}  // namespace

// Runs the UDF over fixed root chunks on the kernel pool and leaves the HDG
// and `rng` bitwise where the serial root-by-root loop would (DESIGN.md §21).
Hdg BuildHdgForRoots(const GnnModel& model, const CsrGraph& graph, std::vector<VertexId> roots,
                     Rng& rng) {
  if (model.hdg_from_input_graph) {
    return FlatHdgFromInNeighbors(graph, std::move(roots));
  }
  const NeighborUdf& udf = model.neighbor_udf;
  FLEX_CHECK_MSG(static_cast<bool>(udf), "model has no neighbor UDF");
  HdgBuilder builder(model.schema, std::move(roots));
  const std::span<const VertexId> all = builder.roots();
  // An empty root set is one empty chunk.
  const std::size_t num_chunks =
      std::max<std::size_t>(1, (all.size() + kRootsPerChunk - 1) / kRootsPerChunk);
  FLEX_COUNTER_ADD("nau.selection_chunks", static_cast<int64_t>(num_chunks));
  auto chunk_roots = [&](std::size_t c) {
    const std::size_t begin = c * kRootsPerChunk;
    return all.subspan(begin, std::min(kRootsPerChunk, all.size() - begin));
  };

  // Chunk 0 starts where the caller's stream stands, so it runs here first,
  // into the builder itself. Its record and leaf counts then size every
  // other chunk's buffer, also here: a buffer that grew on a pool thread
  // would stay resident in that thread's malloc arena.
  SelectNeighbors(udf, graph, chunk_roots(0), rng, builder);
  const std::size_t num_parts = num_chunks - 1;
  std::vector<HdgBuilder> parts;
  parts.reserve(num_parts);
  std::vector<ChunkStream> streams(num_parts, ChunkStream{rng, rng, nullptr});
  Rng cursor = rng;
  for (std::size_t p = 0; p < num_parts; ++p) {
    const std::span<const VertexId> part_roots = chunk_roots(p + 1);
    parts.push_back(builder.NewPart());
    // Twice chunk 0's rate: capacity never written costs no resident memory.
    const uint64_t n = part_roots.size();
    parts.back().Reserve(2 * builder.num_records() * n / kRootsPerChunk + 16,
                         2 * builder.num_leaves() * n / kRootsPerChunk + 16);
    streams[p].start = cursor;
    for (VertexId root : part_roots) {
      cursor.Discard(udf.DeclaredDraws(graph, root));
    }
  }

  // A pool body must not throw: each chunk keeps its error for the caller.
  exec::ParallelChunks(static_cast<int64_t>(num_parts), [&](int64_t i) {
    const auto p = static_cast<std::size_t>(i);
    ChunkStream& stream = streams[p];
    Rng local = stream.start;
    try {
      SelectNeighbors(udf, graph, chunk_roots(p + 1), local, parts[p]);
    } catch (...) {
      stream.error = std::current_exception();
    }
    stream.end = local;
  });

  // In root order, a chunk's run is the serial loop's exactly when it started
  // where the previous chunk truly ended; any other chunk runs again here,
  // from that end. `rng` tracks the serial loop's stream throughout, also
  // when an error leaves.
  int64_t reruns = 0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    ChunkStream& stream = streams[p];
    if (stream.start != rng) {
      ++reruns;
      parts[p].Clear();
      SelectNeighbors(udf, graph, chunk_roots(p + 1), rng, parts[p]);
      continue;
    }
    rng = stream.end;
    if (stream.error != nullptr) {
      std::rethrow_exception(stream.error);
    }
  }
  FLEX_COUNTER_ADD("nau.selection_reruns", reruns);
  return builder.Build(parts);
}

Hdg BuildHdgAllVertices(const GnnModel& model, const CsrGraph& graph, Rng& rng) {
  std::vector<VertexId> roots(graph.num_vertices());
  std::iota(roots.begin(), roots.end(), 0);
  return BuildHdgForRoots(model, graph, std::move(roots), rng);
}

}  // namespace flexgraph
