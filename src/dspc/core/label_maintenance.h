// One maintenance core for the undirected, directed and weighted
// SPC-Indexes: IncSPC (paper §3.1, Algorithms 2-3), DecSPC (§3.2,
// Algorithms 4-6) and the pruned push the directed and weighted builds
// share with IncUPDATE (Appendix C). DESIGN.md §3 "One maintenance core".
//
// The Appendix C variants are the same algorithms over a different
// search, so the core is a template over a policy that supplies only
//   - the arcs of v in a direction, with their lengths (1 for unit kinds);
//   - the frontier: FIFO for BFS, a binary heap that skips stale entries
//     for Dijkstra;
//   - the label family a search in each direction writes.
// A forward search follows arcs out of its root and writes the forward
// family (the directed in-labels); a reverse search follows them back and
// writes the reverse family (the out-labels). The pruning cache of a
// search from hub h holds h's labels of the other family. Undirected
// kinds have one family and symmetric arcs, so both directions coincide.
//
// Deleting (a, b) classifies on the pre-deletion graph and index
// (SrrSEARCH, Algorithm 5): a reverse search from a finds side A, the
// vertices v with sd(v,a) + w = sd(v,b); a forward search from b finds
// side B. A side's SR part ("sender and receiver") holds the vertices
// whose labels as hub may change: common hubs of a and b (Condition A)
// and vertices all of whose shortest paths to the far endpoint cross the
// edge (Condition B). Its R part holds the rest. After the mutation each
// SR hub re-runs a rank-pruned search (DecUPDATE, Algorithm 6) that writes
// labels of the opposite side only (Lemma 3.14), then removes the labels
// with that hub that the search did not re-certify. Sides are a bitmask:
// on a directed cycle through the arc a vertex can be on both.
//
// Not thread-safe; one core per index, holding n-sized scratch.

#ifndef DSPC_CORE_LABEL_MAINTENANCE_H_
#define DSPC_CORE_LABEL_MAINTENANCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dspc/core/spc_index.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/digraph.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/weighted_graph.h"

namespace dspc {

enum class Direction : uint8_t { kForward, kReverse };

constexpr Direction Opposite(Direction dir) {
  return dir == Direction::kForward ? Direction::kReverse
                                    : Direction::kForward;
}

/// BFS frontier: pops in discovery order, which for unit lengths is
/// distance order.
class FifoFrontier {
 public:
  void Push(Vertex v, Distance /*dist*/) { queue_.push_back(v); }

  bool Pop(const std::vector<Distance>& /*dist*/, Vertex* v) {
    if (head_ == queue_.size()) return false;
    *v = queue_[head_++];
    return true;
  }

  void Clear() {
    queue_.clear();
    head_ = 0;
  }

 private:
  std::vector<Vertex> queue_;
  size_t head_ = 0;
};

/// Dijkstra frontier: a min-heap on (distance, vertex). A vertex whose
/// distance drops is pushed again, and Pop skips the entries it left
/// behind. With positive lengths a vertex is settled once, and every
/// predecessor on a shortest path to it has been settled before it, so its
/// count is final when it pops.
class HeapFrontier {
 public:
  void Push(Vertex v, Distance dist) {
    heap_.emplace_back(dist, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  bool Pop(const std::vector<Distance>& dist, Vertex* v) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d == dist[u]) {
        *v = u;
        return true;
      }
    }
    return false;
  }

  void Clear() { heap_.clear(); }

 private:
  std::vector<std::pair<Distance, Vertex>> heap_;
};

/// Arcs of the unit-length kinds are plain neighbour ids.
struct UnitArcs {
  static Vertex Head(Vertex w) { return w; }
  static Distance Length(Vertex /*w*/) { return 1; }
};

/// The undirected index (DynamicSpcIndex): one family, BFS.
struct UndirectedPolicy : UnitArcs {
  using Frontier = FifoFrontier;
  const Graph* graph;
  SpcIndex* labels;

  const std::vector<Vertex>& Arcs(Vertex v, Direction /*dir*/) const {
    return graph->Neighbors(v);
  }
  SpcIndex& Family(Direction /*dir*/) const { return *labels; }
};

/// The directed index: in-labels forward, out-labels reverse, BFS.
struct DirectedPolicy : UnitArcs {
  using Frontier = FifoFrontier;
  const Digraph* graph;
  SpcIndex* in;
  SpcIndex* out;

  const std::vector<Vertex>& Arcs(Vertex v, Direction dir) const {
    return dir == Direction::kForward ? graph->OutNeighbors(v)
                                      : graph->InNeighbors(v);
  }
  SpcIndex& Family(Direction dir) const {
    return dir == Direction::kForward ? *in : *out;
  }
};

/// The weighted index: one family, Dijkstra.
struct WeightedPolicy {
  using Frontier = HeapFrontier;
  const WeightedGraph* graph;
  SpcIndex* labels;

  const std::vector<WeightedNeighbor>& Arcs(Vertex v,
                                            Direction /*dir*/) const {
    return graph->Neighbors(v);
  }
  static Vertex Head(const WeightedNeighbor& nb) { return nb.to; }
  static Distance Length(const WeightedNeighbor& nb) { return nb.w; }
  SpcIndex& Family(Direction /*dir*/) const { return *labels; }
};

template <typename Policy>
class LabelMaintenance {
 public:
  /// The policy's graph and families must outlive the core, and the
  /// families must currently be a valid index of the graph (or hold only
  /// self labels, before a build).
  explicit LabelMaintenance(Policy policy) : policy_(policy), cache_(0) {
    Resize();
  }

  /// Re-sizes the scratch to the families' vertex count; call after a
  /// vertex was added or the families were rebuilt.
  void Resize() {
    const size_t n = Fwd().NumVertices();
    cache_ = HubCache(n);
    dist_.assign(n, kInfDistance);
    count_.assign(n, 0);
    side_of_.assign(n, 0);
    updated_.assign(n, 0);
    common_.assign(n, 0);
  }

  /// Build step: labels every vertex the pruned push from hub rank `h`
  /// reaches in direction `dir`. Hubs must be pushed in rank order.
  void PushFromHub(Rank h, Direction dir) {
    const Vertex hv = Fwd().VertexOf(h);
    dist_[hv] = 0;
    count_[hv] = 1;
    touched_.push_back(hv);
    Relax(hv, h, dir);
    UpdateStats unused;
    Push(h, dir, &unused);
  }

  /// IncSPC (Algorithm 2) after (a, b) was inserted, or shortened, to
  /// length `w`: every hub of L_fwd(a) u L_rev(b) re-pushes through the
  /// edge, highest rank first.
  void Insert(Vertex a, Vertex b, Distance w, UpdateStats* stats) {
    SpcIndex& fwd = Fwd();
    SpcIndex& rev = policy_.Family(Direction::kReverse);
    // AFF, collected before any label changes.
    std::vector<Rank> aff;
    {
      const LabelSet& la = fwd.Labels(a);
      const LabelSet& lb = rev.Labels(b);
      aff.reserve(la.size() + lb.size());
      size_t i = 0;
      size_t j = 0;
      while (i < la.size() || j < lb.size()) {
        if (j >= lb.size() || (i < la.size() && la[i].hub < lb[j].hub)) {
          aff.push_back(la[i++].hub);
        } else if (i >= la.size() || lb[j].hub < la[i].hub) {
          aff.push_back(lb[j++].hub);
        } else {
          aff.push_back(la[i].hub);
          ++i;
          ++j;
        }
      }
    }
    stats->affected_hubs = aff.size();

    const Rank rank_a = fwd.RankOf(a);
    const Rank rank_b = fwd.RankOf(b);
    for (const Rank h : aff) {
      // Membership is read from the current labels, and so is the (d, c)
      // seed. A push writes only its own hub's entries, but in a single
      // family the forward push of h can give b an h entry.
      if (h <= rank_b) {
        if (const LabelEntry* seed = fwd.FindLabel(a, h)) {
          // Algorithm 3 lines 3-5: the sigma_{h,a} paths step through the
          // new edge and reach b at d + w.
          Seed(b, seed->dist + w, seed->count);
          Push(h, Direction::kForward, stats);
        }
      }
      if (h <= rank_a) {
        if (const LabelEntry* seed = rev.FindLabel(b, h)) {
          Seed(a, seed->dist + w, seed->count);
          Push(h, Direction::kReverse, stats);
        }
      }
    }
  }

  /// DecSPC (Algorithm 4) for (a, b) of length `w`, before the graph
  /// changes: classifies, calls `mutate` (deletion or lengthening), then
  /// runs DecUPDATE for every SR hub, highest rank first.
  template <typename Mutate>
  void Delete(Vertex a, Vertex b, Distance w, Mutate&& mutate,
              UpdateStats* stats) {
    std::vector<Vertex> sr_a;
    std::vector<Vertex> r_a;
    std::vector<Vertex> sr_b;
    std::vector<Vertex> r_b;
    SrrSearch(a, b, w, Direction::kReverse, &sr_a, &r_a, stats);
    SrrSearch(b, a, w, Direction::kForward, &sr_b, &r_b, stats);

    // Table 5 reporting convention: sr_a holds the larger SR side.
    const bool swap = sr_b.size() > sr_a.size();
    stats->sr_a = swap ? sr_b.size() : sr_a.size();
    stats->sr_b = swap ? sr_a.size() : sr_b.size();
    stats->r_a = swap ? r_b.size() : r_a.size();
    stats->r_b = swap ? r_a.size() : r_b.size();

    MarkSide(sr_a, kSideA | kSrA);
    MarkSide(r_a, kSideA);
    MarkSide(sr_b, kSideB | kSrB);
    MarkSide(r_b, kSideB);

    mutate();

    // SR_a u SR_b without repeats, by ascending rank value.
    std::vector<Vertex> sr_all;
    sr_all.reserve(sr_a.size() + sr_b.size());
    sr_all.insert(sr_all.end(), sr_a.begin(), sr_a.end());
    sr_all.insert(sr_all.end(), sr_b.begin(), sr_b.end());
    const SpcIndex& fwd = Fwd();
    std::sort(sr_all.begin(), sr_all.end(), [&](Vertex x, Vertex y) {
      return fwd.RankOf(x) < fwd.RankOf(y);
    });
    sr_all.erase(std::unique(sr_all.begin(), sr_all.end()), sr_all.end());
    stats->affected_hubs = sr_all.size();

    // Whole sides, for DecUPDATE's removal scan.
    std::vector<Vertex>& side_a = sr_a;
    side_a.insert(side_a.end(), r_a.begin(), r_a.end());
    std::vector<Vertex>& side_b = sr_b;
    side_b.insert(side_b.end(), r_b.begin(), r_b.end());

    for (const Vertex hv : sr_all) {
      // A hub upstream of a reaches side B forward through the edge; one
      // downstream of b reaches side A in reverse.
      if ((side_of_[hv] & kSrA) != 0) {
        DecUpdate(hv, Direction::kForward, kSideB, side_b, stats);
      }
      if ((side_of_[hv] & kSrB) != 0) {
        DecUpdate(hv, Direction::kReverse, kSideA, side_a, stats);
      }
    }

    for (const Vertex v : side_touched_) side_of_[v] = 0;
    side_touched_.clear();
  }

 private:
  // side_of_ bits.
  static constexpr uint8_t kSideA = 1;  // in SR_a u R_a
  static constexpr uint8_t kSideB = 2;  // in SR_b u R_b
  static constexpr uint8_t kSrA = 4;    // in SR_a
  static constexpr uint8_t kSrB = 8;    // in SR_b

  SpcIndex& Fwd() const { return policy_.Family(Direction::kForward); }

  /// Starts a search at `v` with distance `d` and count `c`.
  void Seed(Vertex v, Distance d, PathCount c) {
    dist_[v] = d;
    count_[v] = c;
    touched_.push_back(v);
    frontier_.Push(v, d);
  }

  /// Relaxes the arcs of `v` in direction `dir` for a search restricted to
  /// vertices ranked no higher than `h` (rank pruning; 0 restricts
  /// nothing). A vertex first reached here is recorded for EndSearch.
  void Relax(Vertex v, Rank h, Direction dir) {
    const std::vector<Rank>& rank_of = Fwd().ordering().rank_of;
    const Distance dv = dist_[v];
    const PathCount cv = count_[v];
    for (const auto& arc : policy_.Arcs(v, dir)) {
      const Vertex w = Policy::Head(arc);
      const Distance nd = dv + Policy::Length(arc);
      if (nd < dist_[w]) {
        if (dist_[w] == kInfDistance) {
          if (h > rank_of[w]) continue;
          touched_.push_back(w);
        }
        dist_[w] = nd;
        count_[w] = cv;
        frontier_.Push(w, nd);
      } else if (nd == dist_[w]) {
        count_[w] += cv;
      }
    }
  }

  /// Resets the distances and counts of the finished search.
  void EndSearch() {
    for (const Vertex v : touched_) {
      dist_[v] = kInfDistance;
      count_[v] = 0;
    }
    touched_.clear();
    frontier_.Clear();
  }

  /// The seeded pruned push of hub rank `h` in direction `dir`
  /// (Algorithm 3), from the seeded frontier. The prune is relaxed to
  /// strictly shorter (Lemma 3.4): at equal distance the search found new
  /// shortest paths whose counts must be added.
  void Push(Rank h, Direction dir, UpdateStats* stats) {
    SpcIndex& target = policy_.Family(dir);
    cache_.Load(policy_.Family(Opposite(dir)).Labels(target.VertexOf(h)));
    Vertex v;
    while (frontier_.Pop(dist_, &v)) {
      ++stats->visited_vertices;
      if (cache_.Covers(target.Labels(v), dist_[v])) continue;

      if (LabelEntry* existing = target.FindLabel(v, h)) {
        if (existing->dist == dist_[v]) {
          // No path counted before used the new edge, so counts add.
          existing->count += count_[v];
          ++stats->renew_count;
        } else {
          existing->dist = dist_[v];
          existing->count = count_[v];
          ++stats->renew_dist;
        }
      } else {
        target.InsertLabel(v, LabelEntry{h, dist_[v], count_[v]});
        ++stats->inserted;
      }
      Relax(v, h, dir);
    }
    EndSearch();
  }

  /// SrrSEARCH (Algorithm 5) from `from` in direction `dir`, on the
  /// pre-deletion graph: classifies each v with a shortest path to
  /// `towards` through the edge of length `w` into SR or R.
  void SrrSearch(Vertex from, Vertex towards, Distance w, Direction dir,
                 std::vector<Vertex>* sr, std::vector<Vertex>* r,
                 UpdateStats* stats) {
    // The searched vertices' labels towards the far endpoint are in the
    // `dir` family; the far endpoint's, and the common hubs, in the other.
    const SpcIndex& near = policy_.Family(Opposite(dir));
    const SpcIndex& family = policy_.Family(dir);
    cache_.Load(near.Labels(towards));
    MarkCommonHubs(near.Labels(from), near.Labels(towards));

    Seed(from, 0, 1);
    Vertex v;
    while (frontier_.Pop(dist_, &v)) {
      ++stats->visited_vertices;
      // Prune v unless a shortest path from v to `towards` crosses the
      // edge: sd(v, towards) must be sd(v, from) + w.
      const SpcResult far = cache_.Query(family.Labels(v));
      if (far.dist == kInfDistance || dist_[v] + w != far.dist) continue;

      // Condition A, or Condition B: spc(v, from) == spc(v, towards).
      if (common_[family.RankOf(v)] != 0 || count_[v] == far.count) {
        sr->push_back(v);
      } else {
        r->push_back(v);
      }
      Relax(v, 0, dir);
    }
    EndSearch();
    for (const Rank h : common_touched_) common_[h] = 0;
    common_touched_.clear();
  }

  /// Marks the hub ranks common to two sorted label sets.
  void MarkCommonHubs(const LabelSet& x, const LabelSet& y) {
    size_t i = 0;
    size_t j = 0;
    while (i < x.size() && j < y.size()) {
      if (x[i].hub < y[j].hub) {
        ++i;
      } else if (x[i].hub > y[j].hub) {
        ++j;
      } else {
        common_[x[i].hub] = 1;
        common_touched_.push_back(x[i].hub);
        ++i;
        ++j;
      }
    }
  }

  void MarkSide(const std::vector<Vertex>& vs, uint8_t bits) {
    for (const Vertex v : vs) {
      if (side_of_[v] == 0) side_touched_.push_back(v);
      side_of_[v] = static_cast<uint8_t>(side_of_[v] | bits);
    }
  }

  /// DecUPDATE (Algorithm 6): the rank-pruned search of SR hub `hv` in
  /// direction `dir` over the post-deletion graph. It writes labels only
  /// of vertices on `opposite_side`, then removes each (hv, ., .) label of
  /// `opposite` that it did not re-certify.
  void DecUpdate(Vertex hv, Direction dir, uint8_t opposite_side,
                 const std::vector<Vertex>& opposite, UpdateStats* stats) {
    SpcIndex& target = policy_.Family(dir);
    const Rank h = target.RankOf(hv);
    cache_.Load(policy_.Family(Opposite(dir)).Labels(hv));

    Seed(hv, 0, 1);
    Vertex v;
    while (frontier_.Pop(dist_, &v)) {
      ++stats->visited_vertices;
      if (v != hv) {
        // PreQUERY: only hubs ranked strictly above h take part; if they
        // certify a shorter distance, no (h, ., .) label is needed at or
        // beyond v.
        if (cache_.Covers(target.Labels(v), dist_[v], h)) continue;

        if ((side_of_[v] & opposite_side) != 0) {
          if (LabelEntry* existing = target.FindLabel(v, h)) {
            if (existing->dist != dist_[v]) {
              existing->dist = dist_[v];
              existing->count = count_[v];
              ++stats->renew_dist;
            } else if (existing->count != count_[v]) {
              existing->count = count_[v];
              ++stats->renew_count;
            }
          } else {
            target.InsertLabel(v, LabelEntry{h, dist_[v], count_[v]});
            ++stats->inserted;
          }
          updated_[v] = 1;
          updated_touched_.push_back(v);
        }
      }
      Relax(v, h, dir);
    }

    // Algorithm 6 lines 23-26: a label the search did not re-certify has
    // sigma = 0 and goes. The scan runs for every SR hub, not only for
    // common hubs of a and b (DESIGN.md §3). The hub's own self label is
    // permanent; on a directed cycle the hub can be on its opposite side.
    for (const Vertex u : opposite) {
      if (u != hv && updated_[u] == 0 && target.RemoveLabel(u, h)) {
        ++stats->removed;
      }
    }

    EndSearch();
    for (const Vertex u : updated_touched_) updated_[u] = 0;
    updated_touched_.clear();
  }

  Policy policy_;

  HubCache cache_;
  std::vector<Distance> dist_;
  std::vector<PathCount> count_;
  typename Policy::Frontier frontier_;
  std::vector<Vertex> touched_;
  std::vector<uint8_t> side_of_;  // by vertex: kSide* | kSr* bits
  std::vector<Vertex> side_touched_;
  std::vector<uint8_t> updated_;  // U[.] of Algorithm 6, by vertex
  std::vector<Vertex> updated_touched_;
  std::vector<uint8_t> common_;  // by rank: hub of both endpoints
  std::vector<Rank> common_touched_;
};

}  // namespace dspc

#endif  // DSPC_CORE_LABEL_MAINTENANCE_H_
