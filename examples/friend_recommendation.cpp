// Friend recommendation on a dynamic social network (paper Figure 1).
//
// Users at distance 2 with more shortest paths share more mutual friends.
// The dynamic index keeps recommendations current while friendships are
// added and removed — the scenario that motivates DSPC in the paper's
// introduction. Mutations go through the typed SpcService API: every
// friendship change returns a WriteToken, and the ranking recomputed
// right after a change reads with that token (min_generation) so the user
// is guaranteed to see their own edit reflected — the read-your-writes
// contract a social product actually needs.

#include <cstdio>

#include "dspc/api/spc_service.h"
#include "dspc/apps/recommendation.h"
#include "dspc/common/rng.h"
#include "dspc/graph/generators.h"

using namespace dspc;

namespace {

void ShowRecommendations(const SpcService& service, Vertex user) {
  const auto recs = RecommendFriends(service.engine(), user, 5);
  std::printf("top-%zu recommendations for user %u:\n", recs.size(), user);
  for (const Recommendation& r : recs) {
    std::printf("  user %-6u  mutual friends: %llu\n", r.candidate,
                static_cast<unsigned long long>(r.paths));
  }
}

}  // namespace

int main() {
  // A scale-free social network: preferential attachment mirrors how
  // social graphs grow.
  const size_t kUsers = 2000;
  Graph social = GenerateBarabasiAlbert(kUsers, 3, 2024);
  std::printf("social network: %zu users, %zu friendships\n",
              social.NumVertices(), social.NumEdges());

  SpcService service(std::move(social));
  const Vertex user = 42;

  std::printf("\n=== initial state ===\n");
  ShowRecommendations(service, user);

  // The network evolves: the user makes two new friends. Each insert
  // returns a token; verifying the new friendships with the last token
  // proves the user reads their own writes without any global flush.
  std::printf("\n=== user %u befriends two suggested users ===\n", user);
  const auto before = RecommendFriends(service.engine(), user, 2);
  WriteToken last_write;
  for (const Recommendation& r : before) {
    const auto added = service.InsertEdge(user, r.candidate);
    if (!added.ok()) {
      std::printf("  insert rejected: %s\n",
                  added.status().ToString().c_str());
      continue;
    }
    last_write = added->token;
    std::printf("  added friendship %u - %u (generation %llu)\n", user,
                r.candidate,
                static_cast<unsigned long long>(last_write.generation));
  }
  ReadOptions ryw;
  ryw.min_generation = last_write.generation;
  for (const Recommendation& r : before) {
    const auto check = service.Query(user, r.candidate, ryw);
    std::printf("  verify %u - %u: distance %u (%s)\n", user, r.candidate,
                check.ok() ? check->result.dist : 0,
                check.ok() && check->result.dist == 1
                    ? "own write observed"
                    : "unexpected");
  }
  ShowRecommendations(service, user);

  std::printf("\n=== churn: 50 random friendships added, 10 removed ===\n");
  Rng rng(7);
  size_t added = 0;
  while (added < 50) {
    const auto a = static_cast<Vertex>(rng.NextBounded(kUsers));
    const auto b = static_cast<Vertex>(rng.NextBounded(kUsers));
    const auto resp = service.InsertEdge(a, b);
    if (resp.ok() && resp->stats.applied) ++added;
  }
  size_t removed = 0;
  while (removed < 10) {
    const auto edges = service.engine().graph().Edges();
    const Edge e = edges[rng.NextBounded(edges.size())];
    const auto resp = service.RemoveEdge(e.u, e.v);
    if (resp.ok() && resp->stats.applied) ++removed;
  }
  ShowRecommendations(service, user);

  // The service counted every write outcome above (the duplicate inserts
  // the churn loop retried show up as no-ops, not applied updates).
  std::printf("\n%s", service.Metrics().PrometheusText().c_str());

  std::printf(
      "\nEvery ranking above was computed from the live index — %zu\n"
      "friendship changes were absorbed by IncSPC/DecSPC, not rebuilds.\n",
      added + removed + before.size());
  return 0;
}
