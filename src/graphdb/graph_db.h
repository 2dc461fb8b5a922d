// GraphDb: a finite edge-labelled directed graph — the paper's data model.
//
// D = (V, E) with E ⊆ V × A × V. Vertices are dense ids. Edges are staged as
// a flat triple list by AddEdge and flattened on first read access into two
// CSR (compressed sparse row) views — forward and backward — each a packed
// edge array plus per-vertex offsets. Within a vertex's slice edges are
// sorted by (symbol, endpoint), so per-symbol sub-slices are binary
// searchable, and the CSR build removes duplicate triples (the data model is
// a set; generator-produced multigraphs would otherwise inflate BFS
// fan-out).
//
// Thread-safety: the CSR build is lazy and NOT thread-safe. Call Finalize()
// once before handing a GraphDb to concurrent readers (the parallel
// evaluation paths do); after that, all const accessors are safe to call
// from any number of threads as long as no mutation interleaves.
//
// The build-then-freeze contract is encoded with a phantom capability
// (csr_role_, an ExclusiveRole from common/annotations.h): every member
// that the lazy build mutates is ECRPQ_GUARDED_BY(csr_role_), and only the
// audited entry points — mutators during the single-writer build phase,
// EnsureFinalized() on the read side — assert the role. Under
// ECRPQ_ANALYZE=thread-safety any new code path that touches the CSR state
// without passing an asserting entry point fails to compile.
#ifndef ECRPQ_GRAPHDB_GRAPH_DB_H_
#define ECRPQ_GRAPHDB_GRAPH_DB_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "common/annotations.h"
#include "common/result.h"

namespace ecrpq {

using VertexId = uint32_t;

// Process-unique graph identity plus a monotone mutation epoch — the
// invalidation token of the cross-query caching layer (reach memo).
// A memo slot is keyed on the id and holds the epoch it was built at; any
// mutation bumps the epoch, so a lookup counts the stale slot as a miss by
// construction and the rebuild replaces it, with no explicit
// invalidation.
//
// Copy/move semantics are the load-bearing part:
//  - a COPIED graph gets a FRESH id (epoch restarts at 0): the copy can
//    diverge from the original, and two diverging graphs must never share
//    an (id, epoch) pair — that would resurrect the other graph's cache
//    entries as wrong answers;
//  - a MOVED-FROM graph hands its identity to the destination (the graph
//    the entries describe lives there now) and re-seeds itself with a
//    fresh id, keeping the moved-from shell safe to reuse.
class GraphIdentity {
 public:
  GraphIdentity() : id_(NextId()) {}
  GraphIdentity(const GraphIdentity&) : id_(NextId()) {}
  GraphIdentity& operator=(const GraphIdentity&) {
    id_ = NextId();
    epoch_ = 0;
    return *this;
  }
  GraphIdentity(GraphIdentity&& other) noexcept
      : id_(other.id_), epoch_(other.epoch_) {
    other.id_ = NextId();
    other.epoch_ = 0;
  }
  GraphIdentity& operator=(GraphIdentity&& other) noexcept {
    id_ = other.id_;
    epoch_ = other.epoch_;
    other.id_ = NextId();
    other.epoch_ = 0;
    return *this;
  }

  uint64_t id() const { return id_; }
  uint64_t epoch() const { return epoch_; }
  void BumpEpoch() { ++epoch_; }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t id_;
  uint64_t epoch_ = 0;
};

struct LabeledEdge {
  Symbol symbol;
  VertexId to;
  bool operator==(const LabeledEdge&) const = default;
  auto operator<=>(const LabeledEdge&) const = default;
};

class GraphDb {
 public:
  explicit GraphDb(Alphabet alphabet) : alphabet_(std::move(alphabet)) {}

  const Alphabet& alphabet() const { return alphabet_; }
  Alphabet* mutable_alphabet() {
    // Alphabet growth is a (conservative) mutation for cache purposes.
    identity_.BumpEpoch();
    return &alphabet_;
  }

  // Cache identity: process-unique graph id and the monotone epoch bumped
  // by every mutator. (graph_id, graph_epoch) names one immutable snapshot
  // of this graph's contents — the reach memo keys on it.
  uint64_t graph_id() const { return identity_.id(); }
  uint64_t graph_epoch() const { return identity_.epoch(); }

  VertexId AddVertex() {
    csr_role_.Assert();  // Build phase: single-writer mutation.
    csr_valid_ = false;
    identity_.BumpEpoch();
    return num_vertices_++;
  }

  void AddVertices(int n) {
    for (int i = 0; i < n; ++i) AddVertex();
  }

  int NumVertices() const { return static_cast<int>(num_vertices_); }

  // Number of stored edges. Duplicate AddEdge calls are counted until the
  // CSR build (first read access, Finalize() or DedupEdges()) collapses
  // them to set semantics.
  size_t NumEdges() const {
    csr_role_.Assert();
    return edges_.size();
  }

  // Adds edge (from, symbol, to). Duplicates are tolerated and removed by
  // the CSR build — they never change query answers.
  void AddEdge(VertexId from, Symbol symbol, VertexId to);

  // Interns the symbol name and adds the edge.
  void AddEdge(VertexId from, std::string_view symbol_name, VertexId to);

  // Outgoing edges of v: (symbol, head) pairs sorted by (symbol, head).
  std::span<const LabeledEdge> OutEdges(VertexId v) const {
    EnsureFinalized();
    ECRPQ_DCHECK(v < num_vertices_);
    return {out_edges_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  // Incoming edges of v: (symbol, tail) pairs sorted by (symbol, tail).
  std::span<const LabeledEdge> InEdges(VertexId v) const {
    EnsureFinalized();
    ECRPQ_DCHECK(v < num_vertices_);
    return {in_edges_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  // The sub-slice of OutEdges(v) labelled `symbol` (binary search).
  std::span<const LabeledEdge> OutEdges(VertexId v, Symbol symbol) const;

  // The sub-slice of InEdges(v) labelled `symbol` (binary search).
  std::span<const LabeledEdge> InEdges(VertexId v, Symbol symbol) const;

  bool HasEdge(VertexId from, Symbol symbol, VertexId to) const;

  // Builds (or rebuilds) the CSR views now. Idempotent; called implicitly
  // by every read accessor. Call explicitly before concurrent reads.
  void Finalize() const { EnsureFinalized(); }

  // Forces the CSR build and returns how many duplicate triples this call
  // removed from the staged edge list.
  size_t DedupEdges();

  // Structural invariants of the finalized representation: monotone
  // offsets, per-vertex sorted + duplicate-free slices, endpoint/symbol
  // bounds, and forward/backward view consistency. Dies on violation.
  void CheckInvariants() const;

  // Appends a disjoint copy of `other` (alphabets are merged by name).
  // Returns the id offset: vertex v of `other` becomes offset + v.
  VertexId AppendDisjoint(const GraphDb& other);

 private:
  struct EdgeRec {
    VertexId from;
    Symbol symbol;
    VertexId to;
    auto operator<=>(const EdgeRec&) const = default;
  };

  // Asserts the CSR role for the caller: either this is the (single) build
  // thread triggering the lazy build, or the structure is already frozen
  // and the guarded state is immutable — the contract from the header
  // comment. Downstream guarded reads then satisfy the analysis.
  void EnsureFinalized() const ECRPQ_ASSERT_EXCLUSIVE(csr_role_) {
    csr_role_.Assert();
    if (!csr_valid_) BuildCsr();
  }
  void BuildCsr() const ECRPQ_REQUIRES(csr_role_);

  Alphabet alphabet_;
  GraphIdentity identity_;
  VertexId num_vertices_ = 0;
  // The phantom capability guarding the lazily-(re)built state below.
  ExclusiveRole csr_role_;
  // Canonical edge set; staged unsorted by AddEdge, sorted by
  // (from, symbol, to) and deduplicated by BuildCsr.
  mutable std::vector<EdgeRec> edges_ ECRPQ_GUARDED_BY(csr_role_);
  // CSR views, rebuilt lazily from edges_.
  mutable bool csr_valid_ ECRPQ_GUARDED_BY(csr_role_) = false;
  // Offset arrays are size |V| + 1.
  mutable std::vector<uint32_t> out_offsets_ ECRPQ_GUARDED_BY(csr_role_);
  mutable std::vector<uint32_t> in_offsets_ ECRPQ_GUARDED_BY(csr_role_);
  mutable std::vector<LabeledEdge> out_edges_ ECRPQ_GUARDED_BY(csr_role_);
  mutable std::vector<LabeledEdge> in_edges_ ECRPQ_GUARDED_BY(csr_role_);
};

// Two-way navigation (2RPQ/C2RPQ support): a copy of `db` where every
// symbol `a` gains an inverse symbol `a<suffix>` and every edge u -a-> v a
// reverse edge v -a<suffix>-> u. Queries can then traverse edges backwards
// with ordinary regexes (e.g. /a~* b/) — the same alphabet-extension trick
// the paper's Lemma 5.3 uses to fix atom orientations.
GraphDb WithInverses(const GraphDb& db, std::string_view suffix = "~");

}  // namespace ecrpq

#endif  // ECRPQ_GRAPHDB_GRAPH_DB_H_
