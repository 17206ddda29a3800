#include "dspc/graph/io.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/common/types.h"

namespace dspc {

namespace {

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open: " + path);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("cannot seek: " + path);
  }
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("cannot stat: " + path);
  }
  out->resize(static_cast<size_t>(size));
  const bool ok =
      size == 0 || std::fread(out->data(), 1, out->size(), f) == out->size();
  std::fclose(f);
  if (!ok) return Status::IOError("short read: " + path);
  return Status::OK();
}

/// Pulls whitespace-separated unsigned integers off a text line; returns
/// how many were parsed (up to `max_fields`), or -1 for a field that is
/// not a digit run or does not fit 64 bits.
int ParseFields(const char* line, const char* end, uint64_t* fields,
                int max_fields) {
  int count = 0;
  const char* p = line;
  while (p < end && count < max_fields) {
    while (p < end && (std::isspace(static_cast<unsigned char>(*p)) != 0)) ++p;
    if (p >= end) break;
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) return -1;
    uint64_t value = 0;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p)) != 0) {
      const uint64_t digit = static_cast<uint64_t>(*p - '0');
      if (value > (UINT64_MAX - digit) / 10) return -1;
      value = value * 10 + digit;
      ++p;
    }
    fields[count++] = value;
  }
  return count;
}

/// Refuses an edge whose endpoint ids do not fit a Vertex: a wider id
/// would alias a smaller one when cast, and kInvalidVertex is reserved.
Status CheckEndpoints(const uint64_t* fields, size_t lineno) {
  if (fields[0] >= kInvalidVertex || fields[1] >= kInvalidVertex) {
    return Status::Corruption("vertex id out of range at line " +
                              std::to_string(lineno));
  }
  return Status::OK();
}

bool IsCommentOrBlank(const char* line, const char* end) {
  const char* p = line;
  while (p < end && std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  return p >= end || *p == '#' || *p == '%';
}

template <typename LineFn>
Status ForEachLine(const std::string& text, LineFn fn) {
  const char* p = text.data();
  const char* const end = p + text.size();
  size_t lineno = 0;
  while (p < end) {
    const char* eol = p;
    while (eol < end && *eol != '\n') ++eol;
    ++lineno;
    if (!IsCommentOrBlank(p, eol)) {
      Status s = fn(p, eol, lineno);
      if (!s.ok()) return s;
    }
    p = eol + 1;
  }
  return Status::OK();
}

}  // namespace

Status ParseEdgeList(const std::string& text, Graph* out,
                     const EdgeListOptions& options) {
  std::vector<Edge> raw;
  uint64_t max_id = 0;
  Status s = ForEachLine(
      text, [&](const char* line, const char* end, size_t lineno) -> Status {
        uint64_t fields[2];
        const int k = ParseFields(line, end, fields, 2);
        if (k < 2) {
          return Status::Corruption("bad edge at line " +
                                    std::to_string(lineno));
        }
        Status ids = CheckEndpoints(fields, lineno);
        if (!ids.ok()) return ids;
        max_id = std::max({max_id, fields[0], fields[1]});
        raw.push_back(Edge{static_cast<Vertex>(fields[0]),
                           static_cast<Vertex>(fields[1])});
        return Status::OK();
      });
  if (!s.ok()) return s;

  if (options.keep_ids) {
    *out = Graph(raw.empty() ? 0 : max_id + 1, raw);
    return Status::OK();
  }
  // Compact sparse ids preserving first-appearance order.
  std::unordered_map<Vertex, Vertex> remap;
  remap.reserve(raw.size() * 2);
  auto intern = [&](Vertex v) {
    auto [it, inserted] = remap.emplace(v, static_cast<Vertex>(remap.size()));
    (void)inserted;
    return it->second;
  };
  for (Edge& e : raw) {
    e.u = intern(e.u);
    e.v = intern(e.v);
  }
  *out = Graph(remap.size(), raw);
  return Status::OK();
}

Status LoadEdgeList(const std::string& path, Graph* out,
                    const EdgeListOptions& options) {
  std::string text;
  Status s = ReadFileToString(path, &text);
  if (!s.ok()) return s;
  return ParseEdgeList(text, out, options);
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open for writing: " + path);
  std::fprintf(f, "# dspc edge list: %zu vertices, %zu edges\n",
               graph.NumVertices(), graph.NumEdges());
  bool ok = true;
  for (const Edge& e : graph.Edges()) {
    ok = ok && std::fprintf(f, "%u %u\n", e.u, e.v) > 0;
  }
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("short write: " + path);
}

namespace {
constexpr uint32_t kGraphMagic = 0x44535047;  // "DSPG"
}  // namespace

Status SaveGraphBinary(const Graph& graph, const std::string& path) {
  BinaryWriter w;
  w.PutU32(kGraphMagic);
  w.PutU32(1);  // version
  w.PutU64(graph.NumVertices());
  w.PutU64(graph.NumEdges());
  for (const Edge& e : graph.Edges()) {
    w.PutU32(e.u);
    w.PutU32(e.v);
  }
  return w.WriteToFile(path);
}

Status LoadGraphBinary(const std::string& path, Graph* out) {
  BinaryReader r({});
  Status s = BinaryReader::ReadFromFile(path, &r);
  if (!s.ok()) return s;
  if (r.GetU32() != kGraphMagic) return Status::Corruption("bad graph magic");
  if (r.GetU32() != 1) return Status::Corruption("bad graph version");
  const uint64_t n = r.GetU64();
  const uint64_t m = r.GetU64();
  // Validate counts against the actual payload before any allocation: a
  // bit-flipped m would otherwise drive a multi-GB reserve (or worse, a
  // length_error abort) from attacker-controlled bytes.
  if (!r.status().ok()) return Status::DataLoss("truncated graph header");
  if (m > r.remaining() / (2 * sizeof(uint32_t))) {
    return Status::DataLoss("graph edge count exceeds payload: " + path);
  }
  if (n > (uint64_t{1} << 32)) {
    return Status::DataLoss("graph vertex count out of range: " + path);
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    const Vertex u = r.GetU32();
    const Vertex v = r.GetU32();
    if (u >= n || v >= n) {
      return Status::DataLoss("graph edge endpoint out of range: " + path);
    }
    edges.push_back(Edge{u, v});
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in " + path);
  *out = Graph(n, edges);
  return Status::OK();
}

Status ParseWeightedEdgeList(const std::string& text, WeightedGraph* out) {
  std::vector<WeightedEdge> raw;
  uint64_t max_id = 0;
  Status s = ForEachLine(
      text, [&](const char* line, const char* end, size_t lineno) -> Status {
        uint64_t fields[3];
        const int k = ParseFields(line, end, fields, 3);
        if (k < 3) {
          return Status::Corruption("bad weighted edge at line " +
                                    std::to_string(lineno));
        }
        Status ids = CheckEndpoints(fields, lineno);
        if (!ids.ok()) return ids;
        if (fields[2] > std::numeric_limits<Weight>::max()) {
          return Status::Corruption("weight out of range at line " +
                                    std::to_string(lineno));
        }
        max_id = std::max({max_id, fields[0], fields[1]});
        raw.push_back(WeightedEdge{static_cast<Vertex>(fields[0]),
                                   static_cast<Vertex>(fields[1]),
                                   static_cast<Weight>(fields[2])});
        return Status::OK();
      });
  if (!s.ok()) return s;
  *out = WeightedGraph(raw.empty() ? 0 : max_id + 1, raw);
  return Status::OK();
}

Status LoadWeightedEdgeList(const std::string& path, WeightedGraph* out) {
  std::string text;
  Status s = ReadFileToString(path, &text);
  if (!s.ok()) return s;
  return ParseWeightedEdgeList(text, out);
}

Status SaveWeightedEdgeList(const WeightedGraph& graph,
                            const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open for writing: " + path);
  std::fprintf(f, "# dspc weighted edge list: %zu vertices, %zu edges\n",
               graph.NumVertices(), graph.NumEdges());
  bool ok = true;
  for (const WeightedEdge& e : graph.Edges()) {
    ok = ok && std::fprintf(f, "%u %u %u\n", e.u, e.v, e.w) > 0;
  }
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("short write: " + path);
}

}  // namespace dspc
