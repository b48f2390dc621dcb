// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Storage layout policies for the graph containers.
//
// The graph API (vertex_data()/edge_data()/Gvid()/owner()/...) is
// row-oriented; how the rows are *stored* is a layout policy chosen by a
// template parameter on LocalGraph / DistributedGraph:
//
//   StorageLayout::kSoA   (default) struct-of-arrays: each logical field
//         lives in its own contiguous, cache-line-aligned PropertyColumn
//         parallel to the CSR adjacency index.  The GAS gather loop
//         streams exactly the columns it reads (user data + endpoints)
//         instead of dragging versions/colors/owners through the cache,
//         and the compiler can vectorize over the plain column pointers.
//         Ghost replicas occupy rows of the same columns, so coherence
//         pushes (ApplyDataPush) land columnar too.
//
//   StorageLayout::kAoS   the record layout the repo used before the
//         columnar refactor (VertexRecord/EdgeRecord rows).  Kept as the
//         baseline: bench_columnar_scan measures SoA against it, and the
//         engine-equivalence tests assert bit-identical results with the
//         layout toggled.
//
// Both policies expose the same duck-typed accessor surface, so the graph
// code is layout-agnostic; only the flat-gather fast path asks for more
// (`kContiguous` + the *_span() accessors), and it degrades to the generic
// row walk when the store cannot provide them.

#ifndef GRAPHLAB_GRAPH_STORAGE_H_
#define GRAPHLAB_GRAPH_STORAGE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graphlab/graph/property_column.h"
#include "graphlab/graph/types.h"
#include "graphlab/rpc/message.h"

namespace graphlab {

enum class StorageLayout : uint8_t {
  kAoS = 0,  // array-of-structs records (pre-columnar baseline)
  kSoA = 1,  // struct-of-arrays property columns (default)
};

inline const char* ToString(StorageLayout l) {
  switch (l) {
    case StorageLayout::kAoS: return "aos";
    case StorageLayout::kSoA: return "soa";
  }
  return "?";
}

namespace storage {

// ======================================================================
// DistributedGraph vertex stores
// ======================================================================

/// Columnar vertex store: one PropertyColumn per VertexRecord field.
template <typename V>
struct DistVertexSoA {
  static constexpr bool kContiguous = true;

  PropertyColumn<VertexId> gvid;
  PropertyColumn<ColorId> color;
  PropertyColumn<rpc::MachineId> owner;  // the dedicated owner column
  PropertyColumn<uint8_t> owned;
  PropertyColumn<uint64_t> version;
  PropertyColumn<uint64_t> flushed;
  PropertyColumn<V> data;

  size_t size() const { return gvid.size(); }
  void clear() {
    gvid.clear();
    color.clear();
    owner.clear();
    owned.clear();
    version.clear();
    flushed.clear();
    data.clear();
  }
  void reserve(size_t n) {
    gvid.reserve(n);
    color.reserve(n);
    owner.reserve(n);
    owned.reserve(n);
    version.reserve(n);
    flushed.reserve(n);
    data.reserve(n);
  }
  void Append(VertexId g, ColorId c, rpc::MachineId o, bool own, V d) {
    gvid.push_back(g);
    color.push_back(c);
    owner.push_back(o);
    owned.push_back(own ? 1 : 0);
    version.push_back(0);
    flushed.push_back(0);
    data.push_back(std::move(d));
  }

  VertexId GvidOf(LocalVid l) const { return gvid[l]; }
  ColorId ColorOf(LocalVid l) const { return color[l]; }
  rpc::MachineId OwnerOf(LocalVid l) const { return owner[l]; }
  bool OwnedOf(LocalVid l) const { return owned[l] != 0; }
  uint64_t& Version(LocalVid l) { return version[l]; }
  uint64_t VersionOf(LocalVid l) const { return version[l]; }
  uint64_t& Flushed(LocalVid l) { return flushed[l]; }
  uint64_t FlushedOf(LocalVid l) const { return flushed[l]; }
  V& Data(LocalVid l) { return data[l]; }
  const V& DataOf(LocalVid l) const { return data[l]; }

  std::span<const V> data_span() const { return data.span(); }
  std::span<const rpc::MachineId> owner_span() const { return owner.span(); }
};

/// Record vertex store: the pre-columnar VertexRecord rows.
template <typename V>
struct DistVertexAoS {
  static constexpr bool kContiguous = false;

  struct Record {
    VertexId gvid = kInvalidVertex;
    ColorId color = 0;
    rpc::MachineId owner = 0;
    bool owned = false;
    uint64_t version = 0;
    uint64_t flushed_version = 0;
    V data{};
  };
  std::vector<Record> rows;

  size_t size() const { return rows.size(); }
  void clear() { rows.clear(); }
  void reserve(size_t n) { rows.reserve(n); }
  void Append(VertexId g, ColorId c, rpc::MachineId o, bool own, V d) {
    Record r;
    r.gvid = g;
    r.color = c;
    r.owner = o;
    r.owned = own;
    r.data = std::move(d);
    rows.push_back(std::move(r));
  }

  VertexId GvidOf(LocalVid l) const { return rows[l].gvid; }
  ColorId ColorOf(LocalVid l) const { return rows[l].color; }
  rpc::MachineId OwnerOf(LocalVid l) const { return rows[l].owner; }
  bool OwnedOf(LocalVid l) const { return rows[l].owned; }
  uint64_t& Version(LocalVid l) { return rows[l].version; }
  uint64_t VersionOf(LocalVid l) const { return rows[l].version; }
  uint64_t& Flushed(LocalVid l) { return rows[l].flushed_version; }
  uint64_t FlushedOf(LocalVid l) const { return rows[l].flushed_version; }
  V& Data(LocalVid l) { return rows[l].data; }
  const V& DataOf(LocalVid l) const { return rows[l].data; }
};

// ======================================================================
// DistributedGraph edge stores
// ======================================================================

template <typename E>
struct DistEdgeSoA {
  static constexpr bool kContiguous = true;

  PropertyColumn<LocalVid> src;
  PropertyColumn<LocalVid> dst;
  PropertyColumn<uint64_t> version;
  PropertyColumn<uint64_t> flushed;
  PropertyColumn<E> data;

  size_t size() const { return src.size(); }
  void clear() {
    src.clear();
    dst.clear();
    version.clear();
    flushed.clear();
    data.clear();
  }
  void reserve(size_t n) {
    src.reserve(n);
    dst.reserve(n);
    version.reserve(n);
    flushed.reserve(n);
    data.reserve(n);
  }
  void Append(LocalVid s, LocalVid d, E ed) {
    src.push_back(s);
    dst.push_back(d);
    version.push_back(0);
    flushed.push_back(0);
    data.push_back(std::move(ed));
  }

  LocalVid SrcOf(LocalEid e) const { return src[e]; }
  LocalVid DstOf(LocalEid e) const { return dst[e]; }
  uint64_t& Version(LocalEid e) { return version[e]; }
  uint64_t VersionOf(LocalEid e) const { return version[e]; }
  uint64_t& Flushed(LocalEid e) { return flushed[e]; }
  uint64_t FlushedOf(LocalEid e) const { return flushed[e]; }
  E& Data(LocalEid e) { return data[e]; }
  const E& DataOf(LocalEid e) const { return data[e]; }

  std::span<const E> data_span() const { return data.span(); }
  std::span<const LocalVid> src_span() const { return src.span(); }
  std::span<const LocalVid> dst_span() const { return dst.span(); }
};

template <typename E>
struct DistEdgeAoS {
  static constexpr bool kContiguous = false;

  struct Record {
    LocalVid src = kInvalidLocalVid;
    LocalVid dst = kInvalidLocalVid;
    uint64_t version = 0;
    uint64_t flushed_version = 0;
    E data{};
  };
  std::vector<Record> rows;

  size_t size() const { return rows.size(); }
  void clear() { rows.clear(); }
  void reserve(size_t n) { rows.reserve(n); }
  void Append(LocalVid s, LocalVid d, E ed) {
    Record r;
    r.src = s;
    r.dst = d;
    r.data = std::move(ed);
    rows.push_back(std::move(r));
  }

  LocalVid SrcOf(LocalEid e) const { return rows[e].src; }
  LocalVid DstOf(LocalEid e) const { return rows[e].dst; }
  uint64_t& Version(LocalEid e) { return rows[e].version; }
  uint64_t VersionOf(LocalEid e) const { return rows[e].version; }
  uint64_t& Flushed(LocalEid e) { return rows[e].flushed_version; }
  uint64_t FlushedOf(LocalEid e) const { return rows[e].flushed_version; }
  E& Data(LocalEid e) { return rows[e].data; }
  const E& DataOf(LocalEid e) const { return rows[e].data; }
};

// ======================================================================
// LocalGraph stores (no versioning/ownership: single-machine setting)
// ======================================================================

template <typename V>
struct LocalVertexSoA {
  static constexpr bool kContiguous = true;
  PropertyColumn<V> data;

  size_t size() const { return data.size(); }
  void resize(size_t n) { data.resize(n); }
  void push_back(V d) { data.push_back(std::move(d)); }
  V& Data(VertexId v) { return data[v]; }
  const V& DataOf(VertexId v) const { return data[v]; }
  std::span<const V> data_span() const { return data.span(); }
};

template <typename V>
struct LocalVertexAoS {
  static constexpr bool kContiguous = false;
  std::vector<V> rows;

  size_t size() const { return rows.size(); }
  void resize(size_t n) { rows.resize(n); }
  void push_back(V d) { rows.push_back(std::move(d)); }
  V& Data(VertexId v) { return rows[v]; }
  const V& DataOf(VertexId v) const { return rows[v]; }
};

template <typename E>
struct LocalEdgeSoA {
  static constexpr bool kContiguous = true;
  PropertyColumn<VertexId> src;
  PropertyColumn<VertexId> dst;
  PropertyColumn<E> data;

  size_t size() const { return data.size(); }
  void Append(VertexId s, VertexId d, E ed) {
    src.push_back(s);
    dst.push_back(d);
    data.push_back(std::move(ed));
  }
  VertexId SrcOf(EdgeId e) const { return src[e]; }
  VertexId DstOf(EdgeId e) const { return dst[e]; }
  E& Data(EdgeId e) { return data[e]; }
  const E& DataOf(EdgeId e) const { return data[e]; }
  std::span<const E> data_span() const { return data.span(); }
  std::span<const VertexId> src_span() const { return src.span(); }
  std::span<const VertexId> dst_span() const { return dst.span(); }
};

template <typename E>
struct LocalEdgeAoS {
  static constexpr bool kContiguous = false;
  struct Record {
    VertexId src;
    VertexId dst;
    E data;
  };
  std::vector<Record> rows;

  size_t size() const { return rows.size(); }
  void Append(VertexId s, VertexId d, E ed) {
    rows.push_back(Record{s, d, std::move(ed)});
  }
  VertexId SrcOf(EdgeId e) const { return rows[e].src; }
  VertexId DstOf(EdgeId e) const { return rows[e].dst; }
  E& Data(EdgeId e) { return rows[e].data; }
  const E& DataOf(EdgeId e) const { return rows[e].data; }
};

}  // namespace storage
}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_STORAGE_H_
