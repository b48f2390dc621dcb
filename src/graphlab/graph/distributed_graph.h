// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// DistributedGraph<V, E, Layout>: one machine's partition of the data
// graph plus ghost caches of remote boundary data (Sec. 4.1).
//
// Each machine owns the vertices of its assigned atoms, stores every edge
// incident to an owned vertex, and keeps ghost copies of remote endpoint
// vertices.  "The ghosts are used as caches for their true counterparts
// across the network.  Cache coherence is managed using a simple versioning
// system, eliminating the transmission of unchanged or constant data."
//
// Storage layout: vertex and edge properties live in a layout policy
// (graph/storage.h).  The default is struct-of-arrays — each logical
// field (gvid, color, owner, owned, version, flushed, user data) is a
// contiguous cache-line-aligned PropertyColumn parallel to the CSR built
// by Ingest(), so the GAS gather loop streams only the columns it reads,
// the dedicated owner column feeds mirror/scope compilation without
// striding over records, and ghost replicas occupy rows of the same
// columns (a coherence push writes straight into the data column).  The
// pre-columnar record layout (kAoS) is kept as the measurable baseline:
// bench_columnar_scan sweeps one against the other and the equivalence
// tests assert bit-identical results with the layout toggled.  All
// row-oriented accessors below are thin views into the active store, so
// engines, snapshots, scope-lock plans, and recovery are layout-blind.
//
// Coherence protocol: every write bumps the entity's version; after an
// update function commits, FlushVertexScope() pushes entities whose version
// exceeds their flushed version to the machines holding replicas, batched
// into one message per destination.  Receivers apply a push only when its
// version is newer.  Constant edge data (e.g. PageRank link weights) is
// therefore transmitted at most zero times after load, reproducing the
// paper's optimization.
//
// Ghost sync modes:
//  * kPerScope — each FlushVertexScope() sends immediately, one frame per
//    destination holding a replica of something that changed.  The
//    locking engine requires this: pushes must precede lock releases on
//    the same FIFO channel.
//  * kCoalesced — FlushVertexScope() stages a dirty entity as one bit in
//    a per-graph vertex or edge bitset; setting a bit that is already set
//    merges the write (graph.coalesced_merges).  FlushDeltas() closes the
//    window: it clears the set bits, groups their entities by peer, and
//    encodes ONE frame per peer straight from the gvid, version and data
//    columns, so a staged entity's bytes are read when the window closes
//    (last write wins, at its final version).  Precondition: nobody but
//    the stager writes a staged entity until the window closes.  Engines
//    whose consumers only read ghosts after a communication barrier use
//    this: in a chromatic color-step only a color-c vertex's own update
//    writes it and its edges, and the WaitFlushed drain that ends each
//    color-step (or bulk-sync superstep) keeps the previous window's
//    pushes from landing in the next.
//
// Wire format of a ghost delta batch (columnar; handler kDataPushHandler):
//
//   u8  format         kGhostFrameVersion (2)
//   u32 vertex_count
//       vertex_count x u32 gvid          (column)
//       vertex_count x u64 version       (column)
//       vertex_count x VertexData blobs  (concatenated, self-delimiting)
//   u32 edge_count
//       edge_count x u32 source gvid
//       edge_count x u32 target gvid
//       edge_count x u64 version
//       edge_count x EdgeData blobs
//
// Decoding is fully checked: a truncated or corrupt frame logs and drops
// the remainder instead of crashing (see util/serialization.h).
//
// Memory-sharing discipline: machines interact with each other's
// DistributedGraph instances only through CommLayer messages.

#ifndef GRAPHLAB_GRAPH_DISTRIBUTED_GRAPH_H_
#define GRAPHLAB_GRAPH_DISTRIBUTED_GRAPH_H_

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graphlab/graph/atom.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/graph/storage.h"
#include "graphlab/graph/types.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/util/dense_bitset.h"

namespace graphlab {

/// How FlushVertexScope() ships dirty ghost data (see file header).
enum class GhostSyncMode {
  kPerScope,   // send immediately on every scope flush
  kCoalesced,  // stage one bit per entity; FlushDeltas() ships windows
};

/// Leading byte of every ghost push frame; bump when the layout changes.
inline constexpr uint8_t kGhostFrameVersion = 2;

template <typename VertexData, typename EdgeData,
          StorageLayout Layout = StorageLayout::kSoA>
class DistributedGraph {
 public:
  using vertex_data_type = VertexData;
  using edge_data_type = EdgeData;
  using VertexStore =
      std::conditional_t<Layout == StorageLayout::kSoA,
                         storage::DistVertexSoA<VertexData>,
                         storage::DistVertexAoS<VertexData>>;
  using EdgeStore = std::conditional_t<Layout == StorageLayout::kSoA,
                                       storage::DistEdgeSoA<EdgeData>,
                                       storage::DistEdgeAoS<EdgeData>>;
  static constexpr StorageLayout kLayout = Layout;
  /// True when every property field is a contiguous column the flat-gather
  /// fast path may stream directly (vertex_program/gas_compiler.h).
  static constexpr bool kContiguousProperties =
      VertexStore::kContiguous && EdgeStore::kContiguous;

  /// Handler id used for ghost data pushes.
  static constexpr rpc::HandlerId kDataPushHandler = rpc::kFirstUserHandler;

  DistributedGraph() = default;

  // --------------------------------------------------------------------
  // Ingress
  // --------------------------------------------------------------------

  /// Loads this machine's atoms from disk (journal playback) and registers
  /// the ghost-push handler.  `placement` maps atom -> machine.
  Status LoadAtoms(const AtomIndex& index,
                   const std::vector<rpc::MachineId>& placement,
                   rpc::MachineId me, rpc::CommLayer* comm) {
    GL_CHECK_EQ(placement.size(), index.num_atoms());
    std::vector<typename AtomContent<VertexData, EdgeData>::VertexCmd> vcmds;
    std::vector<typename AtomContent<VertexData, EdgeData>::EdgeCmd> ecmds;
    for (AtomId a = 0; a < index.num_atoms(); ++a) {
      if (placement[a] != me) continue;
      auto content = LoadAtom<VertexData, EdgeData>(index.atoms[a]);
      if (!content.ok()) return content.status();
      auto& c = *content;
      vcmds.insert(vcmds.end(), c.vertices.begin(), c.vertices.end());
      ecmds.insert(ecmds.end(), c.edges.begin(), c.edges.end());
    }
    return Ingest(index, placement, me, comm, std::move(vcmds),
                  std::move(ecmds));
  }

  /// Test/bench convenience: cuts a fully materialized graph directly into
  /// this machine's partition without touching disk.  `atom_of` may map
  /// vertices straight to machines (num_atoms == num_machines) or to atoms
  /// combined with a separate placement.  The global graph may use either
  /// storage layout.
  template <StorageLayout GlobalLayout>
  Status InitFromGlobal(
      const LocalGraph<VertexData, EdgeData, GlobalLayout>& global,
      const PartitionAssignment& atom_of, const ColorAssignment& colors,
      const std::vector<rpc::MachineId>& placement, rpc::MachineId me,
      rpc::CommLayer* comm) {
    GL_CHECK(global.finalized());
    GL_CHECK_EQ(atom_of.size(), global.num_vertices());
    AtomIndex index;
    index.num_vertices = global.num_vertices();
    index.atom_of_vertex = atom_of;
    index.color_of_vertex = colors;
    ColorId max_color = 0;
    for (ColorId c : colors) max_color = std::max(max_color, c);
    index.num_colors = colors.empty() ? 1 : max_color + 1;

    std::vector<typename AtomContent<VertexData, EdgeData>::VertexCmd> vcmds;
    std::vector<typename AtomContent<VertexData, EdgeData>::EdgeCmd> ecmds;
    auto machine_of_vertex = [&](VertexId v) { return placement[atom_of[v]]; };

    std::vector<uint8_t> present(global.num_vertices(), 0);
    for (VertexId v = 0; v < global.num_vertices(); ++v) {
      if (machine_of_vertex(v) != me) continue;
      vcmds.push_back({v, atom_of[v], colors[v], /*ghost=*/false,
                       global.vertex_data(v)});
      present[v] = 1;
    }
    for (EdgeId e = 0; e < global.num_edges(); ++e) {
      VertexId u = global.source(e), v = global.target(e);
      bool mine_u = machine_of_vertex(u) == me;
      bool mine_v = machine_of_vertex(v) == me;
      if (!mine_u && !mine_v) continue;
      ecmds.push_back({u, v, global.edge_data(e)});
      for (VertexId g : {u, v}) {
        if (machine_of_vertex(g) != me && !present[g]) {
          present[g] = 1;
          vcmds.push_back({g, atom_of[g], colors[g], /*ghost=*/true,
                           global.vertex_data(g)});
        }
      }
    }
    return Ingest(index, placement, me, comm, std::move(vcmds),
                  std::move(ecmds));
  }

  // --------------------------------------------------------------------
  // Topology accessors
  // --------------------------------------------------------------------

  size_t num_local_vertices() const { return vstore_.size(); }
  size_t num_local_edges() const { return estore_.size(); }
  size_t num_owned_vertices() const { return owned_.size(); }
  uint64_t num_global_vertices() const { return num_global_vertices_; }
  ColorId num_colors() const { return num_colors_; }
  rpc::MachineId machine_id() const { return me_; }

  /// Local ids of vertices owned by this machine, ascending by global id.
  const std::vector<LocalVid>& owned_vertices() const { return owned_; }

  LocalVid Lvid(VertexId gvid) const {
    auto it = lvid_of_.find(gvid);
    GL_CHECK(it != lvid_of_.end()) << "vertex " << gvid << " not local";
    return it->second;
  }
  LocalVid TryLvid(VertexId gvid) const {
    auto it = lvid_of_.find(gvid);
    return it == lvid_of_.end() ? kInvalidLocalVid : it->second;
  }

  VertexId Gvid(LocalVid l) const { return vstore_.GvidOf(l); }
  ColorId color(LocalVid l) const { return vstore_.ColorOf(l); }
  bool is_owned(LocalVid l) const { return vstore_.OwnedOf(l); }
  rpc::MachineId owner(LocalVid l) const { return vstore_.OwnerOf(l); }

  /// Owner machine of any global vertex (resolved via the atom index data
  /// replicated to every machine).
  rpc::MachineId OwnerOfGlobal(VertexId gvid) const {
    GL_CHECK_LT(gvid, atom_of_vertex_.size());
    return placement_[atom_of_vertex_[gvid]];
  }

  std::span<const LocalEid> in_edges(LocalVid l) const {
    return {in_list_.data() + in_index_[l], in_index_[l + 1] - in_index_[l]};
  }
  std::span<const LocalEid> out_edges(LocalVid l) const {
    return {out_list_.data() + out_index_[l],
            out_index_[l + 1] - out_index_[l]};
  }
  std::span<const LocalVid> neighbors(LocalVid l) const {
    return {nbr_list_.data() + nbr_index_[l],
            nbr_index_[l + 1] - nbr_index_[l]};
  }
  LocalVid edge_source(LocalEid e) const { return estore_.SrcOf(e); }
  LocalVid edge_target(LocalEid e) const { return estore_.DstOf(e); }

  /// Machines participating in the scope of owned vertex l (this machine
  /// plus owners of all neighbors), ascending — the canonical machine order
  /// used by the pipelined lock chains.
  std::span<const rpc::MachineId> scope_machines(LocalVid l) const {
    return {scope_machines_list_.data() + scope_machines_index_[l],
            scope_machines_index_[l + 1] - scope_machines_index_[l]};
  }

  // --------------------------------------------------------------------
  // Data access + versioning
  // --------------------------------------------------------------------

  VertexData& vertex_data(LocalVid l) { return vstore_.Data(l); }
  const VertexData& vertex_data(LocalVid l) const { return vstore_.DataOf(l); }
  EdgeData& edge_data(LocalEid e) { return estore_.Data(e); }
  const EdgeData& edge_data(LocalEid e) const { return estore_.DataOf(e); }

  /// Records that an update wrote the vertex / edge; bumps its version so
  /// the next flush transmits it.
  void MarkVertexModified(LocalVid l) { vstore_.Version(l)++; }
  void MarkEdgeModified(LocalEid e) { estore_.Version(e)++; }

  uint64_t vertex_version(LocalVid l) const { return vstore_.VersionOf(l); }
  uint64_t edge_version(LocalEid e) const { return estore_.VersionOf(e); }

  // --------------------------------------------------------------------
  // Contiguous property columns (SoA layout only).  The flat-gather fast
  // path streams these; the serving/snapshot layers scan them.  Spans stay
  // valid until the next Ingest().
  // --------------------------------------------------------------------
  std::span<const VertexData> vertex_data_span() const
      requires(Layout == StorageLayout::kSoA) {
    return vstore_.data_span();
  }
  std::span<const EdgeData> edge_data_span() const
      requires(Layout == StorageLayout::kSoA) {
    return estore_.data_span();
  }
  std::span<const LocalVid> edge_source_span() const
      requires(Layout == StorageLayout::kSoA) {
    return estore_.src_span();
  }
  std::span<const LocalVid> edge_target_span() const
      requires(Layout == StorageLayout::kSoA) {
    return estore_.dst_span();
  }
  /// The dedicated owner column (mirror/scope compilation reads this).
  std::span<const rpc::MachineId> owner_span() const
      requires(Layout == StorageLayout::kSoA) {
    return vstore_.owner_span();
  }

  /// Selects how ghost pushes travel (see file header).  Engines set this
  /// at Start(): chromatic/bulk-sync use kCoalesced windows, the locking
  /// engine requires kPerScope.  Not thread safe against in-flight
  /// flushes — switch only between runs; switching away from kCoalesced
  /// ships any staged deltas first.
  void SetGhostSyncMode(GhostSyncMode mode) {
    if (ghost_sync_mode_ == GhostSyncMode::kCoalesced &&
        mode != GhostSyncMode::kCoalesced) {
      FlushDeltas();
    }
    ghost_sync_mode_ = mode;
  }
  GhostSyncMode ghost_sync_mode() const { return ghost_sync_mode_; }

  /// Pushes the modified data of owned vertex l and its adjacent edges to
  /// every machine holding a replica.  Entities whose version has not
  /// advanced are skipped (the paper's versioned cache coherence), and
  /// destinations with nothing changed get no frame at all.  In
  /// kPerScope mode the frames leave immediately (one per destination);
  /// in kCoalesced mode each entity is staged as one bit and leaves at
  /// the next FlushDeltas() window.  Must be called while the caller
  /// still holds exclusive rights to the scope (before lock release /
  /// within the color step).
  void FlushVertexScope(LocalVid l) {
    GL_CHECK(is_owned(l));
    const bool coalesce = ghost_sync_mode_ == GhostSyncMode::kCoalesced;
    thread_local std::vector<PeerIds> scope;
    if (!coalesce && scope.size() < comm_->num_machines()) {
      scope.resize(comm_->num_machines());
    }
    uint64_t sent = 0;
    if (vstore_.VersionOf(l) > vstore_.FlushedOf(l)) {
      auto mirrors = MirrorSpan(l);
      if (!mirrors.empty()) {
        if (coalesce) {
          Stage(&staged_vertices_, l);
        } else {
          for (rpc::MachineId m : mirrors) scope[m].vids.push_back(l);
        }
        sent += mirrors.size();
      }
      vstore_.Flushed(l) = vstore_.VersionOf(l);
    } else {
      pushes_skipped_.Inc();
    }
    auto flush_edge = [&](LocalEid e) {
      if (estore_.VersionOf(e) <= estore_.FlushedOf(e)) return;
      rpc::MachineId other = EdgeMirror(e);
      if (other != me_) {
        if (coalesce) {
          Stage(&staged_edges_, e);
        } else {
          scope[other].eids.push_back(e);
        }
        ++sent;
      }
      estore_.Flushed(e) = estore_.VersionOf(e);
    };
    for (LocalEid e : in_edges(l)) flush_edge(e);
    for (LocalEid e : out_edges(l)) flush_edge(e);
    if (sent == 0) return;
    pushes_sent_.Inc(sent);
    if (!coalesce) ShipFrames(&scope);
  }

  /// Closes the coalescing window: clears the staged bits and ships one
  /// framed batch per peer with anything staged, encoded from the
  /// columns as they are now.  Engines call this at window boundaries
  /// (end of a color-step / superstep, before the communication
  /// barrier).  No-op when nothing is staged.
  void FlushDeltas() {
    GL_TRACE_SCOPE(trace::kRpc, "graph.flush_deltas");
    std::lock_guard<std::mutex> lock(window_mutex_);
    staged_vertices_.DrainSetBits([this](size_t l) {
      for (rpc::MachineId m : MirrorSpan(static_cast<LocalVid>(l))) {
        window_[m].vids.push_back(static_cast<LocalVid>(l));
      }
    });
    staged_edges_.DrainSetBits([this](size_t e) {
      window_[EdgeMirror(static_cast<LocalEid>(e))].eids.push_back(
          static_cast<LocalEid>(e));
    });
    ShipFrames(&window_);
  }

  /// Bulk variant used by the synchronous (MPI-style) baseline: stages
  /// every owned vertex whose version advanced since its last flush and
  /// ships one batched frame per destination machine for the whole pass
  /// (the MPI_Alltoall analogue).  Edges are not exchanged (synchronous
  /// kernels keep mutable state on vertices).
  void FlushAllOwnedBulk() {
    uint64_t sent = 0, skipped = 0;
    for (LocalVid l : owned_) {
      if (vstore_.VersionOf(l) <= vstore_.FlushedOf(l)) {
        ++skipped;
        continue;
      }
      const size_t mirrors = MirrorSpan(l).size();
      if (mirrors != 0) {
        Stage(&staged_vertices_, l);
        sent += mirrors;
      }
      vstore_.Flushed(l) = vstore_.VersionOf(l);
    }
    pushes_sent_.Inc(sent);
    pushes_skipped_.Inc(skipped);
    FlushDeltas();
  }

  /// Versioning-ablation counters: replica pushes made, and scope flushes
  /// whose vertex had not changed.
  uint64_t pushes_sent() const { return pushes_sent_.Value(); }
  uint64_t pushes_skipped() const { return pushes_skipped_.Value(); }

  /// Coalescing instrumentation: framed batches shipped, and staged
  /// writes that merged into an already-staged entity (re-writes within
  /// a flush window that per-scope mode would have transmitted
  /// separately).
  uint64_t delta_batches_sent() const { return delta_batches_.Value(); }
  uint64_t coalesced_merges() const { return coalesced_merges_.Value(); }

  /// Applies one framed ghost delta batch (runs on the dispatch thread).
  /// Decoding is fully checked: a truncated or unknown-format frame is
  /// logged and dropped; entities already applied stay (idempotent under
  /// the version rule).  Writes land directly in the property columns.
  void ApplyDataPush(InArchive& ia) {
    uint8_t format = ia.ReadValue<uint8_t>();
    if (!ia.ok() || format != kGhostFrameVersion) {
      GL_LOG(ERROR) << "machine " << me_
                    << ": dropping ghost frame with format "
                    << static_cast<int>(format) << " (want "
                    << static_cast<int>(kGhostFrameVersion) << ")";
      return;
    }

    thread_local std::vector<VertexId> keys;
    thread_local std::vector<uint64_t> versions;

    const uint32_t vcount = ia.ReadValue<uint32_t>();
    if (!ReadColumn(ia, vcount, &keys) ||
        !ReadColumn(ia, vcount, &versions)) {
      GL_LOG(ERROR) << "machine " << me_ << ": truncated ghost frame";
      return;
    }
    for (uint32_t i = 0; i < vcount; ++i) {
      VertexData data;
      ia >> data;
      if (!ia.ok()) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": truncated vertex blob in ghost frame";
        return;
      }
      // Corrupt-but-decodable keys (not local, or claiming an owned
      // vertex) are logged and skipped, not fatal: over TCP this input
      // is externally reachable.
      LocalVid l = TryLvid(keys[i]);
      if (l == kInvalidLocalVid || vstore_.OwnedOf(l)) {
        GL_LOG(ERROR) << "machine " << me_ << ": ghost push for "
                      << (l == kInvalidLocalVid ? "non-local" : "owned")
                      << " vertex " << keys[i] << "; dropping entity";
        continue;
      }
      if (versions[i] > vstore_.VersionOf(l)) {
        vstore_.Data(l) = std::move(data);
        vstore_.Version(l) = versions[i];
      }
    }

    thread_local std::vector<VertexId> dst_keys;
    const uint32_t ecount = ia.ReadValue<uint32_t>();
    if (!ReadColumn(ia, ecount, &keys) ||
        !ReadColumn(ia, ecount, &dst_keys) ||
        !ReadColumn(ia, ecount, &versions)) {
      GL_LOG(ERROR) << "machine " << me_ << ": truncated ghost frame";
      return;
    }
    for (uint32_t i = 0; i < ecount; ++i) {
      EdgeData data;
      ia >> data;
      if (!ia.ok()) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": truncated edge blob in ghost frame";
        return;
      }
      auto it = leid_of_.find(EdgeKey(keys[i], dst_keys[i]));
      if (it == leid_of_.end()) {
        GL_LOG(ERROR) << "machine " << me_ << ": ghost push for non-local "
                      << "edge " << keys[i] << "->" << dst_keys[i]
                      << "; dropping entity";
        continue;
      }
      LocalEid e = it->second;
      if (versions[i] > estore_.VersionOf(e)) {
        estore_.Data(e) = std::move(data);
        estore_.Version(e) = versions[i];
        // Keep flushed in sync so this machine does not re-push data it
        // merely received.
        estore_.Flushed(e) = versions[i];
      }
    }
  }

  /// Local edge id for a global (src, dst) pair; CHECKs presence.
  LocalEid LeidOf(VertexId gsrc, VertexId gdst) const {
    auto it = leid_of_.find(EdgeKey(gsrc, gdst));
    GL_CHECK(it != leid_of_.end())
        << "edge " << gsrc << "->" << gdst << " not local";
    return it->second;
  }
  /// Like LeidOf but returns kInvalidLocalEid when the edge is not held
  /// locally — snapshot journals span the whole cluster, and a restore
  /// onto different membership must skip foreign records.
  LocalEid TryLeid(VertexId gsrc, VertexId gdst) const {
    auto it = leid_of_.find(EdgeKey(gsrc, gdst));
    return it == leid_of_.end() ? kInvalidLocalEid : it->second;
  }

 private:
  static uint64_t EdgeKey(VertexId s, VertexId d) {
    return (static_cast<uint64_t>(s) << 32) | d;
  }

  // --------------------------------------------------------------------
  // Ghost delta frames (see the wire-format comment in the file header)
  // --------------------------------------------------------------------

  /// The entities one frame to one peer carries.
  struct PeerIds {
    std::vector<LocalVid> vids;
    std::vector<LocalEid> eids;
  };

  /// A registry counter read per graph instance: every graph on a machine
  /// shares the machine's registry, so reads subtract the value at bind.
  struct InstanceCounter {
    metrics::Counter* counter = nullptr;
    uint64_t base = 0;

    void Bind(metrics::MetricsRegistry& reg, const std::string& name) {
      counter = reg.counter(name);
      base = counter->Value();
    }
    void Inc(uint64_t n = 1) { counter->Inc(n); }
    uint64_t Value() const {
      return counter == nullptr ? 0 : counter->Value() - base;
    }
  };

  template <typename T>
  static bool ReadColumn(InArchive& ia, uint32_t count,
                         std::vector<T>* out) {
    // Validate the wire-controlled count against the bytes left BEFORE
    // allocating (a corrupt count of 2^32-1 must not resize gigabytes).
    if (count > ia.remaining() / sizeof(T)) {
      out->clear();
      return false;
    }
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) ia >> (*out)[i];
    return ia.ok();
  }

  /// Marks an entity staged for the current window; a second write within
  /// the window only merges.
  void Stage(DenseBitset* staged, size_t i) {
    if (!staged->SetBit(i)) coalesced_merges_.Inc();
  }

  /// Encodes and sends one frame per peer with anything listed, straight
  /// from the key, version and data columns, then empties the lists.
  void ShipFrames(std::vector<PeerIds>* peers) {
    for (rpc::MachineId m = 0; m < peers->size(); ++m) {
      PeerIds& p = (*peers)[m];
      if (p.vids.empty() && p.eids.empty()) continue;
      OutArchive oa;
      oa << kGhostFrameVersion << static_cast<uint32_t>(p.vids.size());
      for (LocalVid l : p.vids) oa << vstore_.GvidOf(l);
      for (LocalVid l : p.vids) oa << vstore_.VersionOf(l);
      for (LocalVid l : p.vids) oa << vstore_.DataOf(l);
      oa << static_cast<uint32_t>(p.eids.size());
      for (LocalEid e : p.eids) oa << Gvid(estore_.SrcOf(e));
      for (LocalEid e : p.eids) oa << Gvid(estore_.DstOf(e));
      for (LocalEid e : p.eids) oa << estore_.VersionOf(e);
      for (LocalEid e : p.eids) oa << estore_.DataOf(e);
      p.vids.clear();
      p.eids.clear();
      delta_batches_.Inc();
      comm_->Send(me_, m, kDataPushHandler, std::move(oa));
    }
  }

  /// Machines holding a ghost of owned vertex l.
  std::span<const rpc::MachineId> MirrorSpan(LocalVid l) const {
    return {mirror_list_.data() + mirror_index_[l],
            mirror_index_[l + 1] - mirror_index_[l]};
  }

  /// The other machine holding edge e (or me_ if fully local).
  rpc::MachineId EdgeMirror(LocalEid e) const {
    rpc::MachineId os = vstore_.OwnerOf(estore_.SrcOf(e));
    rpc::MachineId od = vstore_.OwnerOf(estore_.DstOf(e));
    if (os != me_) return os;
    if (od != me_) return od;
    return me_;
  }

  Status Ingest(
      const AtomIndex& index, const std::vector<rpc::MachineId>& placement,
      rpc::MachineId me, rpc::CommLayer* comm,
      std::vector<typename AtomContent<VertexData, EdgeData>::VertexCmd>
          vcmds,
      std::vector<typename AtomContent<VertexData, EdgeData>::EdgeCmd>
          ecmds) {
    me_ = me;
    comm_ = comm;
    num_global_vertices_ = index.num_vertices;
    num_colors_ = index.num_colors;
    atom_of_vertex_ = index.atom_of_vertex;
    placement_ = placement;

    // Deduplicate vertices: owned records win over ghost records.
    std::sort(vcmds.begin(), vcmds.end(), [](const auto& a, const auto& b) {
      if (a.gvid != b.gvid) return a.gvid < b.gvid;
      return a.ghost < b.ghost;  // owned (ghost=false) first
    });
    vstore_.clear();
    vstore_.reserve(vcmds.size());
    lvid_of_.clear();
    owned_.clear();
    for (const auto& vc : vcmds) {
      const size_t count = vstore_.size();
      if (count > 0 &&
          vstore_.GvidOf(static_cast<LocalVid>(count - 1)) == vc.gvid) {
        continue;
      }
      const rpc::MachineId owner = placement_[atom_of_vertex_[vc.gvid]];
      const bool owned = (owner == me_);
      if (vc.ghost && owned) {
        return Status::Corruption("ghost record for locally owned vertex");
      }
      lvid_of_[vc.gvid] = static_cast<LocalVid>(count);
      if (owned) owned_.push_back(static_cast<LocalVid>(count));
      vstore_.Append(vc.gvid, vc.color, owner, owned, vc.data);
    }

    // Deduplicate edges (cross-atom edges journaled twice).
    estore_.clear();
    estore_.reserve(ecmds.size());
    leid_of_.clear();
    leid_of_.reserve(ecmds.size());
    for (const auto& ec : ecmds) {
      uint64_t key = EdgeKey(ec.src, ec.dst);
      if (leid_of_.count(key)) continue;
      auto its = lvid_of_.find(ec.src);
      auto itd = lvid_of_.find(ec.dst);
      if (its == lvid_of_.end() || itd == lvid_of_.end()) {
        return Status::Corruption("edge references vertex missing locally");
      }
      leid_of_[key] = static_cast<LocalEid>(estore_.size());
      estore_.Append(its->second, itd->second, ec.data);
    }

    BuildAdjacency();
    BuildMirrors();
    staged_vertices_.Resize(vstore_.size());
    staged_edges_.Resize(estore_.size());
    window_.assign(comm_->num_machines(), PeerIds());
    metrics::MetricsRegistry& reg = comm_->registry(me_);
    pushes_sent_.Bind(reg, "graph.pushes_sent");
    pushes_skipped_.Bind(reg, "graph.pushes_skipped");
    delta_batches_.Bind(reg, "graph.delta_batches_sent");
    coalesced_merges_.Bind(reg, "graph.coalesced_merges");
    RegisterHandler();
    return Status::OK();
  }

  void BuildAdjacency() {
    const size_t n = vstore_.size();
    const size_t m = estore_.size();
    auto build = [&](auto key_fn, std::vector<uint64_t>* idx,
                     std::vector<LocalEid>* list) {
      idx->assign(n + 1, 0);
      for (LocalEid e = 0; e < m; ++e) (*idx)[key_fn(e) + 1]++;
      for (size_t i = 0; i < n; ++i) (*idx)[i + 1] += (*idx)[i];
      list->resize(m);
      std::vector<uint64_t> cursor(idx->begin(), idx->end() - 1);
      for (LocalEid e = 0; e < m; ++e) {
        (*list)[cursor[key_fn(e)]++] = e;
      }
    };
    build([this](LocalEid e) { return estore_.DstOf(e); }, &in_index_,
          &in_list_);
    build([this](LocalEid e) { return estore_.SrcOf(e); }, &out_index_,
          &out_list_);

    // Distinct-neighbor CSR.
    nbr_index_.assign(n + 1, 0);
    nbr_list_.clear();
    std::vector<LocalVid> scratch;
    for (LocalVid l = 0; l < n; ++l) {
      scratch.clear();
      for (LocalEid e : in_edges(l)) scratch.push_back(estore_.SrcOf(e));
      for (LocalEid e : out_edges(l)) scratch.push_back(estore_.DstOf(e));
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      nbr_list_.insert(nbr_list_.end(), scratch.begin(), scratch.end());
      nbr_index_[l + 1] = nbr_list_.size();
    }
  }

  void BuildMirrors() {
    const size_t n = vstore_.size();
    mirror_index_.assign(n + 1, 0);
    mirror_list_.clear();
    scope_machines_index_.assign(n + 1, 0);
    scope_machines_list_.clear();
    std::vector<rpc::MachineId> scratch;
    // Neighbor owners come from the dedicated owner column — a contiguous
    // u32 scan per neighbor list instead of striding over full vertex
    // records (the AoS store degrades to record loads).
    for (LocalVid l = 0; l < n; ++l) {
      scratch.clear();
      for (LocalVid nb : neighbors(l)) scratch.push_back(vstore_.OwnerOf(nb));
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      // Mirrors: remote machines owning neighbors (only meaningful for
      // owned vertices but computed for all).
      for (rpc::MachineId m : scratch) {
        if (m != me_) mirror_list_.push_back(m);
      }
      mirror_index_[l + 1] = mirror_list_.size();
      // Scope machines: mirrors plus this machine, ascending.
      bool inserted_me = false;
      for (rpc::MachineId m : scratch) {
        if (!inserted_me && me_ < m) {
          scope_machines_list_.push_back(me_);
          inserted_me = true;
        }
        scope_machines_list_.push_back(m);
        if (m == me_) inserted_me = true;
      }
      if (!inserted_me) scope_machines_list_.push_back(me_);
      scope_machines_index_[l + 1] = scope_machines_list_.size();
    }
  }

  void RegisterHandler() {
    comm_->RegisterHandler(me_, kDataPushHandler,
                           [this](rpc::MachineId, InArchive& ia) {
                             ApplyDataPush(ia);
                           });
  }

  rpc::MachineId me_ = 0;
  rpc::CommLayer* comm_ = nullptr;
  uint64_t num_global_vertices_ = 0;
  ColorId num_colors_ = 1;
  PartitionAssignment atom_of_vertex_;
  std::vector<rpc::MachineId> placement_;

  VertexStore vstore_;
  EdgeStore estore_;
  std::unordered_map<VertexId, LocalVid> lvid_of_;
  std::unordered_map<uint64_t, LocalEid> leid_of_;
  std::vector<LocalVid> owned_;

  std::vector<uint64_t> in_index_, out_index_, nbr_index_;
  std::vector<LocalEid> in_list_, out_list_;
  std::vector<LocalVid> nbr_list_;
  std::vector<uint64_t> mirror_index_, scope_machines_index_;
  std::vector<rpc::MachineId> mirror_list_, scope_machines_list_;

  GhostSyncMode ghost_sync_mode_ = GhostSyncMode::kPerScope;
  // The coalescing window: entities staged since the last FlushDeltas(),
  // and its per-peer frame lists (kept for their capacity).
  DenseBitset staged_vertices_;
  DenseBitset staged_edges_;
  std::mutex window_mutex_;
  std::vector<PeerIds> window_;
  // Registry-backed counters (unbound, reading 0, until Ingest).
  InstanceCounter pushes_sent_;
  InstanceCounter pushes_skipped_;
  InstanceCounter delta_batches_;
  InstanceCounter coalesced_merges_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_DISTRIBUTED_GRAPH_H_
