// DecSPC: decremental maintenance of the SPC-Index for edge deletion
// (paper §3.2, Algorithms 4-6).
//
// Deleting (a, b) can lengthen distances, so stale labels are poisonous
// and must be found. DecSPC first classifies affected vertices
// (SrrSEARCH, Algorithm 5):
//   SR ("sender and receiver"): labels (v,.,.) with v as hub may need to
//      be renewed/inserted/deleted — v is a common hub of a and b
//      (Condition A) or every shortest path from v to the far endpoint
//      crosses (a, b), i.e. spc(v,a) = spc(v,b) (Condition B);
//   R  ("receiver only"): L(v) may change but no label uses v as hub.
// Only SR hubs re-run a rank-pruned BFS over the post-deletion graph
// (DecUPDATE, Algorithm 6), touching labels only of vertices in the
// *opposite* SR u R (Lemma 3.14). Afterwards, every label of an opposite
// vertex whose hub is this SR hub and that the BFS never re-visited is
// removed (dominated or disconnected). The paper runs that removal scan
// only for common hubs of a and b; DecUpdate deliberately runs it for
// every SR hub, because IncSPC's retained stale labels can otherwise
// outlive the deletion (see DecUpdate).
//
// The §3.2.3 isolated-vertex optimization short-circuits deletions that
// detach a degree-1, lower-ranked endpoint: its label set collapses to
// the self label and nothing else needs to change.

#ifndef DSPC_CORE_DEC_SPC_H_
#define DSPC_CORE_DEC_SPC_H_

#include <cstdint>
#include <vector>

#include "dspc/core/spc_index.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/graph.h"

namespace dspc {

/// Decremental updater. Holds n-sized scratch reused across updates; one
/// instance per (graph, index) pair. Not thread-safe.
class DecSpc {
 public:
  struct Options {
    /// Disables the §3.2.3 fast path (ablation bench).
    bool enable_isolated_vertex_opt = true;
  };

  /// Both pointers must outlive the updater; the index must currently be
  /// a valid SPC-Index of *graph.
  DecSpc(Graph* graph, SpcIndex* index) : DecSpc(graph, index, Options()) {}
  DecSpc(Graph* graph, SpcIndex* index, const Options& options);

  /// Deletes edge (a, b) from the graph and updates the index
  /// (Algorithm 4). stats.applied is false if the edge was absent.
  UpdateStats RemoveEdge(Vertex a, Vertex b);

  /// Grows scratch after vertices were added to the graph/index.
  void Resize();

 private:
  // Which affected side a vertex was classified into by SrrSEARCH.
  enum : uint8_t { kSideNone = 0, kSideA = 1, kSideB = 2 };

  /// Algorithm 5: BFS from `from` on the pre-deletion graph, classifying
  /// the vertices with a shortest path through (a, b) toward `towards`
  /// into SR (`sr`) and R (`r`).
  void SrrSearch(Vertex from, Vertex towards, std::vector<Vertex>* sr,
                 std::vector<Vertex>* r, UpdateStats* stats);

  /// Algorithm 6: rank-pruned BFS from hub vertex `hv` over the
  /// post-deletion graph; updates labels of opposite-side vertices, then
  /// removes every (hv,.,.) label of `opposite_vertices` the BFS did not
  /// re-visit. Unlike the paper, the removal scan runs for every SR hub,
  /// not only for common hubs of a and b.
  void DecUpdate(Vertex hv, uint8_t opposite_side,
                 const std::vector<Vertex>& opposite_vertices,
                 UpdateStats* stats);

  /// §3.2.3 fast path. Returns true if it handled the deletion.
  bool TryIsolatedVertexOpt(Vertex a, Vertex b, UpdateStats* stats);

  Graph* graph_;
  SpcIndex* index_;
  Options options_;

  HubCache cache_;
  std::vector<Distance> dist_;
  std::vector<PathCount> count_;
  std::vector<Vertex> queue_;
  std::vector<Vertex> touched_;

  std::vector<uint8_t> side_of_;         // by vertex: kSideA / kSideB
  std::vector<Vertex> side_touched_;
  std::vector<uint8_t> lab_mark_;        // by rank: hub in L(a) cap L(b)
  std::vector<Rank> lab_touched_;
  std::vector<uint8_t> updated_;         // U[.] of Algorithm 6, by vertex
  std::vector<Vertex> updated_touched_;
};

}  // namespace dspc

#endif  // DSPC_CORE_DEC_SPC_H_
