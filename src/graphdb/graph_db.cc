#include "graphdb/graph_db.h"

#include <algorithm>

namespace ecrpq {

void GraphDb::AddEdge(VertexId from, Symbol symbol, VertexId to) {
  csr_role_.Assert();  // Build phase: single-writer mutation.
  ECRPQ_CHECK_LT(from, num_vertices_);
  ECRPQ_CHECK_LT(to, num_vertices_);
  ECRPQ_CHECK_LT(symbol, static_cast<Symbol>(alphabet_.size()));
  edges_.push_back(EdgeRec{from, symbol, to});
  csr_valid_ = false;
  // Even a duplicate triple bumps the epoch: cheap, and correctness only
  // needs "no mutation without a bump", not the converse.
  identity_.BumpEpoch();
}

void GraphDb::AddEdge(VertexId from, std::string_view symbol_name,
                      VertexId to) {
  AddEdge(from, alphabet_.Intern(symbol_name), to);
}

void GraphDb::BuildCsr() const {
  // Canonicalize the staged triples: sort by (from, symbol, to), dedup.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  const size_t n = num_vertices_;
  const size_t m = edges_.size();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  out_edges_.resize(m);
  in_edges_.resize(m);
  for (const EdgeRec& e : edges_) {
    ++out_offsets_[e.from + 1];
    ++in_offsets_[e.to + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
    in_offsets_[v + 1] += in_offsets_[v];
  }
  // Fill the slices with each vertex's offset as its cursor; a filled
  // slice's cursor ends where the next slice starts, so shifting the
  // offsets right by one restores the starts. No scratch arrays: a rebuild
  // after a mutation then allocates nothing, so it never pays glibc's
  // deferred consolidation of small chunks freed by an earlier request.
  // Forward slices inherit (symbol, to) order from the canonical sort.
  for (const EdgeRec& e : edges_) {
    out_edges_[out_offsets_[e.from]++] = LabeledEdge{e.symbol, e.to};
    in_edges_[in_offsets_[e.to]++] = LabeledEdge{e.symbol, e.from};
  }
  for (size_t v = n; v > 0; --v) {
    out_offsets_[v] = out_offsets_[v - 1];
    in_offsets_[v] = in_offsets_[v - 1];
  }
  out_offsets_[0] = 0;
  in_offsets_[0] = 0;
  // Backward slices were bucketed by head; sort each by (symbol, tail).
  for (size_t v = 0; v < n; ++v) {
    std::sort(in_edges_.begin() + in_offsets_[v],
              in_edges_.begin() + in_offsets_[v + 1]);
  }
  csr_valid_ = true;
}

std::span<const LabeledEdge> GraphDb::OutEdges(VertexId v,
                                               Symbol symbol) const {
  const std::span<const LabeledEdge> all = OutEdges(v);
  const auto [first, last] = std::equal_range(
      all.begin(), all.end(), symbol,
      [](const auto& a, const auto& b) {
        if constexpr (std::is_same_v<std::decay_t<decltype(a)>, Symbol>) {
          return a < b.symbol;
        } else {
          return a.symbol < b;
        }
      });
  return all.subspan(first - all.begin(), last - first);
}

std::span<const LabeledEdge> GraphDb::InEdges(VertexId v, Symbol symbol) const {
  const std::span<const LabeledEdge> all = InEdges(v);
  const auto [first, last] = std::equal_range(
      all.begin(), all.end(), symbol,
      [](const auto& a, const auto& b) {
        if constexpr (std::is_same_v<std::decay_t<decltype(a)>, Symbol>) {
          return a < b.symbol;
        } else {
          return a.symbol < b;
        }
      });
  return all.subspan(first - all.begin(), last - first);
}

bool GraphDb::HasEdge(VertexId from, Symbol symbol, VertexId to) const {
  ECRPQ_CHECK_LT(from, num_vertices_);
  const std::span<const LabeledEdge> all = OutEdges(from);
  return std::binary_search(all.begin(), all.end(),
                            LabeledEdge{symbol, to});
}

size_t GraphDb::DedupEdges() {
  csr_role_.Assert();  // Build phase: single-writer mutation.
  const size_t before = edges_.size();
  csr_valid_ = false;
  Finalize();
  return before - edges_.size();
}

void GraphDb::CheckInvariants() const {
  EnsureFinalized();
  const size_t n = num_vertices_;
  const size_t m = edges_.size();
  ECRPQ_CHECK_EQ(out_offsets_.size(), n + 1);
  ECRPQ_CHECK_EQ(in_offsets_.size(), n + 1);
  ECRPQ_CHECK_EQ(out_offsets_[0], 0u);
  ECRPQ_CHECK_EQ(in_offsets_[0], 0u);
  ECRPQ_CHECK_EQ(out_offsets_[n], m);
  ECRPQ_CHECK_EQ(in_offsets_[n], m);
  ECRPQ_CHECK_EQ(out_edges_.size(), m);
  ECRPQ_CHECK_EQ(in_edges_.size(), m);
  for (size_t v = 0; v < n; ++v) {
    ECRPQ_CHECK_LE(out_offsets_[v], out_offsets_[v + 1]);
    ECRPQ_CHECK_LE(in_offsets_[v], in_offsets_[v + 1]);
    for (uint32_t i = out_offsets_[v]; i < out_offsets_[v + 1]; ++i) {
      const LabeledEdge& e = out_edges_[i];
      ECRPQ_CHECK_LT(e.symbol, static_cast<Symbol>(alphabet_.size()));
      ECRPQ_CHECK_LT(e.to, num_vertices_);
      // Strictly increasing (symbol, to): sorted and duplicate-free.
      if (i > out_offsets_[v]) ECRPQ_CHECK(out_edges_[i - 1] < e);
    }
    for (uint32_t i = in_offsets_[v]; i < in_offsets_[v + 1]; ++i) {
      const LabeledEdge& e = in_edges_[i];
      ECRPQ_CHECK_LT(e.symbol, static_cast<Symbol>(alphabet_.size()));
      ECRPQ_CHECK_LT(e.to, num_vertices_);
      if (i > in_offsets_[v]) ECRPQ_CHECK(in_edges_[i - 1] < e);
    }
  }
  // Forward/backward views describe the same edge set.
  for (size_t v = 0; v < n; ++v) {
    for (uint32_t i = out_offsets_[v]; i < out_offsets_[v + 1]; ++i) {
      const LabeledEdge& e = out_edges_[i];
      const auto slice = InEdges(e.to, e.symbol);
      ECRPQ_CHECK(std::binary_search(
          slice.begin(), slice.end(),
          LabeledEdge{e.symbol, static_cast<VertexId>(v)}));
    }
  }
}

VertexId GraphDb::AppendDisjoint(const GraphDb& other) {
  const VertexId offset = num_vertices_;
  // Merge alphabets by name; build a symbol remap.
  std::vector<Symbol> remap(other.alphabet_.size());
  for (int s = 0; s < other.alphabet_.size(); ++s) {
    remap[s] = alphabet_.Intern(other.alphabet_.names()[s]);
  }
  AddVertices(other.NumVertices());
  for (VertexId v = 0; v < static_cast<VertexId>(other.NumVertices()); ++v) {
    for (const LabeledEdge& e : other.OutEdges(v)) {
      AddEdge(offset + v, remap[e.symbol], offset + e.to);
    }
  }
  return offset;
}

GraphDb WithInverses(const GraphDb& db, std::string_view suffix) {
  Alphabet alphabet = db.alphabet();
  const int base = alphabet.size();
  std::vector<Symbol> inverse(base);
  for (int s = 0; s < base; ++s) {
    inverse[s] = alphabet.Intern(db.alphabet().names()[s] +
                                 std::string(suffix));
  }
  GraphDb out(std::move(alphabet));
  out.AddVertices(db.NumVertices());
  for (VertexId v = 0; v < static_cast<VertexId>(db.NumVertices()); ++v) {
    for (const LabeledEdge& e : db.OutEdges(v)) {
      out.AddEdge(v, e.symbol, e.to);
      out.AddEdge(e.to, inverse[e.symbol], v);
    }
  }
  return out;
}

}  // namespace ecrpq
