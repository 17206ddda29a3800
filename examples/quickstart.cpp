// Quickstart: the paper's running example end to end, served through the
// typed SpcService API (DESIGN.md §9).
//
// Builds the Figure 2 graph, answers the Example 2.1 query, then applies
// the paper's two worked updates — inserting edge (v3, v9) (Figure 3) and
// deleting edge (v1, v2) (Figure 6) — showing that queries stay exact
// without any reconstruction. Every write returns a WriteToken; passing
// token.generation as ReadOptions::min_generation guarantees the read
// observes the write (read-your-writes), and invalid requests come back
// as Status errors instead of undefined behavior. The tail of the demo
// shows the operability surface: per-update WriteReports from batch
// writes, deadline-bounded reads, and the ServiceMetrics exposition
// (docs/serving-guide.md walks through every one of these snippets).

#include <chrono>
#include <cstdio>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/update_stream.h"

using namespace dspc;

namespace {

void PrintQuery(const SpcService& service, Vertex s, Vertex t,
                const ReadOptions& read = {}) {
  const StatusOr<QueryResponse> r = service.Query(s, t, read);
  if (!r.ok()) {
    std::printf("  SPC(v%u, v%u) = error: %s\n", s, t,
                r.status().ToString().c_str());
    return;
  }
  if (r->result.count == 0) {
    std::printf("  SPC(v%u, v%u) = disconnected\n", s, t);
  } else {
    std::printf("  SPC(v%u, v%u) = distance %u, %llu shortest path(s)\n", s, t,
                r->result.dist,
                static_cast<unsigned long long>(r->result.count));
  }
}

void PrintLabels(const SpcService& service, Vertex v) {
  const SpcIndex& index = service.engine().index();
  std::printf("  L(v%u) =", v);
  for (const LabelEntry& e : index.Labels(v)) {
    std::printf(" (v%u,%u,%llu)", index.VertexOf(e.hub), e.dist,
                static_cast<unsigned long long>(e.count));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // The 12-vertex example graph G of the paper's Figure 2.
  Graph g(12);
  const Vertex edges[][2] = {{0, 1}, {0, 2}, {0, 3}, {0, 8}, {0, 11}, {1, 2},
                             {1, 5}, {1, 6}, {2, 3}, {2, 5}, {3, 7},  {3, 8},
                             {4, 5}, {4, 7}, {4, 9}, {6, 10}, {9, 10}};
  for (const auto& e : edges) g.AddEdge(e[0], e[1]);

  // Identity ordering reproduces the paper's v0 <= v1 <= ... <= v11, so
  // the label sets match Table 2 exactly.
  DynamicSpcOptions options;
  options.ordering.strategy = OrderingStrategy::kIdentity;
  SpcService service(std::move(g), options);

  std::printf("Built SPC-Index for the paper's example graph (Figure 2).\n");
  PrintLabels(service, 9);

  std::printf("\nExample 2.1: query v4 -> v6\n");
  PrintQuery(service, 4, 6);  // expect distance 3, 2 paths

  std::printf("\nValidation: the service rejects bad requests typed,\n");
  std::printf("instead of crashing on them:\n");
  const auto bad = service.Query(4, 99);
  std::printf("  Query(v4, v99) -> %s\n", bad.status().ToString().c_str());

  std::printf("\nInsert edge (v3, v9) — the paper's Figure 3 update:\n");
  const auto inc = service.InsertEdge(3, 9);
  if (!inc.ok()) {
    std::printf("  insert failed: %s\n", inc.status().ToString().c_str());
    return 1;
  }
  std::printf("  affected hubs: %zu, labels renewed: %zu, inserted: %zu "
              "(write token: generation %llu)\n",
              inc->stats.affected_hubs,
              inc->stats.renew_count + inc->stats.renew_dist,
              inc->stats.inserted,
              static_cast<unsigned long long>(inc->token.generation));
  PrintLabels(service, 9);  // (v0,4,4) has become (v0,2,1)

  // Read-your-writes: the token pins the read at or after the insert.
  ReadOptions after_insert;
  after_insert.min_generation = inc->token.generation;
  PrintQuery(service, 0, 9, after_insert);

  std::printf("\nDelete edge (v1, v2) — the paper's Figure 6 update:\n");
  const auto dec = service.RemoveEdge(1, 2);
  if (!dec.ok()) {
    std::printf("  delete failed: %s\n", dec.status().ToString().c_str());
    return 1;
  }
  std::printf("  |SR| = %zu hubs ran update searches; removed labels: %zu\n",
              dec->stats.affected_hubs, dec->stats.removed);
  ReadOptions after_delete;
  after_delete.min_generation = dec->token.generation;
  PrintQuery(service, 1, 2, after_delete);  // now 2 via v5 / v0
  PrintQuery(service, 4, 6, after_delete);

  std::printf("\nVertex dynamics: add a new user and connect them.\n");
  const AddVertexResponse added = service.AddVertex();
  WriteToken attach_token = added.token;
  for (const Vertex friend_of : {Vertex{4}, Vertex{10}}) {
    const auto attach = service.InsertEdge(added.vertex, friend_of);
    if (!attach.ok()) {
      std::printf("  attach failed: %s\n", attach.status().ToString().c_str());
      return 1;
    }
    attach_token = attach->token;
  }
  ReadOptions attached;
  attached.min_generation = attach_token.generation;
  PrintQuery(service, added.vertex, 0, attached);

  std::printf("\nBatch admission: one WriteReport per update.\n");
  const std::vector<Update> batch = {
      Update::Insert(5, 9),   // a new edge: applies
      Update::Insert(0, 1),   // already present: legal no-op
      Update::Insert(0, 99),  // bad vertex id: rejected, rest unaffected
  };
  const auto applied_batch = service.ApplyUpdates(batch);
  if (!applied_batch.ok()) {
    std::printf("  batch failed: %s\n",
                applied_batch.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < applied_batch->reports.size(); ++i) {
    const WriteReport& r = applied_batch->reports[i];
    const char* outcome =
        r.outcome == WriteReport::Outcome::kApplied    ? "applied"
        : r.outcome == WriteReport::Outcome::kRejected ? "REJECTED"
                                                       : "no-op";
    std::printf("  update %zu: %-8s %s\n", i, outcome, r.reason);
  }
  std::printf("  (%zu applied, %zu no-ops, %zu rejected — generation %llu)\n",
              applied_batch->applied, applied_batch->noops,
              applied_batch->rejected,
              static_cast<unsigned long long>(
                  applied_batch->token.generation));

  std::printf("\nDeadline-bounded read: waits at most 10ms for a writer,\n");
  std::printf("returning DeadlineExceeded instead of blocking:\n");
  ReadOptions deadline_read;
  deadline_read.timeout = std::chrono::milliseconds(10);
  PrintQuery(service, 4, 6, deadline_read);

  std::printf("\nEverything above was also counted by the service:\n");
  std::printf("%s", service.Metrics().PrometheusText().c_str());

  std::printf("\nDone — every answer above was served from the maintained\n");
  std::printf("index; the index was never rebuilt.\n");
  return 0;
}
