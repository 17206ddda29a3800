// Collaboration-network analytics (paper Appendix A, the Erdős-number
// scenario): distances measure collaboration closeness, but the *number*
// of shortest collaboration chains separates strongly-connected peers
// from coincidental ones. New papers keep arriving — vertex and edge
// insertions — and the index absorbs them incrementally.
//
// Also demonstrates index persistence: the maintained index is saved as
// a snapshot arena image and reloaded, the workflow for shipping a
// prebuilt index alongside a dataset.

#include <cstdio>
#include <string>

#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/env.h"
#include "dspc/persist/snapshot_arena.h"

using namespace dspc;

int main() {
  // Co-authorship networks are scale-free with dense cores; BA is the
  // classic model for them.
  const size_t kAuthors = 3000;
  Graph coauthor = GenerateBarabasiAlbert(kAuthors, 2, 1913);
  std::printf("collaboration network: %zu authors, %zu co-author pairs\n",
              coauthor.NumVertices(), coauthor.NumEdges());

  // The highest-degree author plays Erdős.
  Vertex erdos = 0;
  for (Vertex v = 1; v < coauthor.NumVertices(); ++v) {
    if (coauthor.Degree(v) > coauthor.Degree(erdos)) erdos = v;
  }

  DynamicSpcIndex index(coauthor);
  std::printf("built index; author %u (degree %zu) is our 'Erdos'\n\n", erdos,
              index.graph().Degree(erdos));

  auto report = [&](Vertex author) {
    const SpcResult r = index.Query(erdos, author);
    if (r.count == 0) {
      std::printf("  author %-5u : no collaboration chain\n", author);
    } else {
      std::printf(
          "  author %-5u : Erdos number %u via %llu shortest chain(s)\n",
          author, r.dist, static_cast<unsigned long long>(r.count));
    }
  };

  std::printf("Erdos numbers for a few authors:\n");
  for (Vertex a : {Vertex(77), Vertex(555), Vertex(1234), Vertex(2999)}) {
    report(a);
  }

  // A new PhD student publishes their first two papers.
  std::printf("\na new author joins with two papers:\n");
  const Vertex newbie = index.AddVertex();
  index.InsertEdge(newbie, 77);
  index.InsertEdge(newbie, 2999);
  report(newbie);

  // A prolific collaboration forms between two communities.
  std::printf("\nauthors 555 and 1234 co-author a paper:\n");
  index.InsertEdge(555, 1234);
  report(555);
  report(1234);

  // Persist the maintained index and reload it, as a service would on
  // restart.
  const std::string path = "/tmp/dspc_collaboration.index";
  FileSystem* fs = FileSystem::Default();
  const Status s = WriteSnapshotArena(fs, path, FlatSpcIndex(index.index()),
                                      index.Generation(), /*wal_seq=*/0);
  std::printf("\nsaved index to %s: %s\n", path.c_str(), s.ToString().c_str());
  auto mapped = MappedArena::Map(fs, path);
  std::printf("reloaded: %s\n", mapped.status().ToString().c_str());
  if (!mapped.ok()) return 1;
  const SpcIndex reloaded = mapped->snapshot()->Unpack();
  std::printf("reloaded index: %zu entries\n",
              reloaded.SizeStats().total_entries);
  const SpcResult check = reloaded.Query(erdos, newbie);
  std::printf("reloaded index answers: Erdos number of the new author = %u\n",
              check.dist);
  std::remove(path.c_str());
  return 0;
}
