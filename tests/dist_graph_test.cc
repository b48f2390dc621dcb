// Tests for DistributedGraph: ingress (direct and via atom files), ghost
// placement, versioned coherence pushes, coalesced delta batches, bulk
// flush, and ownership maps — parameterized over both interconnect
// backends (simulated in-process and real TCP loopback sockets), so the
// serialization discipline is proven against a real process-boundary-
// shaped wire, not just the simulator.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

struct TV {
  double x = 0;
  uint32_t snapshot_epoch = 0;
  void Save(OutArchive* oa) const { *oa << x << snapshot_epoch; }
  void Load(InArchive* ia) { *ia >> x >> snapshot_epoch; }
};
struct TE {
  double w = 0;
  void Save(OutArchive* oa) const { *oa << w; }
  void Load(InArchive* ia) { *ia >> w; }
};

using DGraph = DistributedGraph<TV, TE>;
using LGraph = LocalGraph<TV, TE>;

/// Builds a path graph 0-1-2-...-(n-1) with x = vid, w = eid.
LGraph PathGraph(size_t n) {
  LGraph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex({static_cast<double>(i), 0});
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              {static_cast<double>(i)});
  }
  g.Finalize();
  return g;
}

/// Messages machine `me` has sent to each peer so far.
std::vector<uint64_t> SentPerPeer(rpc::MachineContext& ctx) {
  std::vector<uint64_t> sent(ctx.comm().num_machines(), 0);
  for (const rpc::PeerCommStats& p : ctx.comm().GetPeerStats(ctx.id)) {
    sent[p.peer] = p.messages_sent;
  }
  return sent;
}

class DistributedGraphTest
    : public ::testing::TestWithParam<rpc::TransportKind> {
 protected:
  rpc::ClusterOptions TestCluster(size_t machines) {
    return testutil::ClusterFor(GetParam(), machines);
  }
};

TEST_P(DistributedGraphTest, PartitionsAndGhosts) {
  LGraph g = PathGraph(12);
  auto structure = g.Structure();
  auto atom_of = BlockPartition(12, 3);  // 0-3 | 4-7 | 8-11
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3));
  std::vector<DGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });

  // Machine 1 owns 4..7, has ghosts 3 and 8, and edges 3-4..7-8 (5 edges).
  DGraph& m1 = graphs[1];
  EXPECT_EQ(m1.num_owned_vertices(), 4u);
  EXPECT_EQ(m1.num_local_vertices(), 6u);
  EXPECT_EQ(m1.num_local_edges(), 5u);
  EXPECT_FALSE(m1.is_owned(m1.Lvid(3)));
  EXPECT_TRUE(m1.is_owned(m1.Lvid(4)));
  EXPECT_EQ(m1.owner(m1.Lvid(3)), 0u);
  EXPECT_EQ(m1.OwnerOfGlobal(11), 2u);
  // Ghost data was loaded.
  EXPECT_EQ(m1.vertex_data(m1.Lvid(3)).x, 3.0);

  // Scope machines of boundary vertex 4: {0, 1}.
  auto sm = m1.scope_machines(m1.Lvid(4));
  ASSERT_EQ(sm.size(), 2u);
  EXPECT_EQ(sm[0], 0u);
  EXPECT_EQ(sm[1], 1u);
  // Interior vertex 6: {1} only... 6 neighbors 5 and 7, both owned by 1.
  EXPECT_EQ(m1.scope_machines(m1.Lvid(6)).size(), 1u);
}

TEST_P(DistributedGraphTest, GhostPushPropagates) {
  LGraph g = PathGraph(8);
  auto structure = g.Structure();
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      // Modify boundary vertex 3 (ghosted on machine 1) and its edge 3-4.
      LocalVid l = graphs[0].Lvid(3);
      graphs[0].vertex_data(l).x = 333.0;
      graphs[0].MarkVertexModified(l);
      LocalEid e = graphs[0].LeidOf(3, 4);
      graphs[0].edge_data(e).w = 34.0;
      graphs[0].MarkEdgeModified(e);
      graphs[0].FlushVertexScope(l);
    }
    ctx.barrier().Wait(ctx.id);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      EXPECT_EQ(graphs[1].vertex_data(graphs[1].Lvid(3)).x, 333.0);
      EXPECT_EQ(graphs[1].edge_data(graphs[1].LeidOf(3, 4)).w, 34.0);
    }
  });
}

TEST_P(DistributedGraphTest, VersioningSkipsUnchangedData) {
  LGraph g = PathGraph(8);
  auto structure = g.Structure();
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      LocalVid l = graphs[0].Lvid(3);
      graphs[0].MarkVertexModified(l);
      graphs[0].FlushVertexScope(l);
      uint64_t sent_after_first = graphs[0].pushes_sent();
      EXPECT_GT(sent_after_first, 0u);
      // Second flush with no modification: nothing to send.
      graphs[0].FlushVertexScope(l);
      EXPECT_EQ(graphs[0].pushes_sent(), sent_after_first);
      EXPECT_GT(graphs[0].pushes_skipped(), 0u);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// Regression for the per-scope flush inefficiency: flushing a scope in
// which nothing changed must not put ANY message on the wire — no empty
// archives per destination, no frames at all.
TEST_P(DistributedGraphTest, FlushUnmodifiedScopeSendsNoMessages) {
  LGraph g = PathGraph(8);
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      // Ship the boundary scope once so versions are settled.
      LocalVid l = graphs[0].Lvid(3);
      graphs[0].MarkVertexModified(l);
      graphs[0].FlushVertexScope(l);
      const uint64_t msgs_after_first =
          ctx.comm().GetStats(ctx.id).messages_sent;
      EXPECT_GT(msgs_after_first, 0u);
      // Unmodified flushes — boundary and interior scopes alike — must
      // add zero messages to CommStats.
      for (int i = 0; i < 5; ++i) {
        for (LocalVid owned : graphs[0].owned_vertices()) {
          graphs[0].FlushVertexScope(owned);
        }
      }
      EXPECT_EQ(ctx.comm().GetStats(ctx.id).messages_sent, msgs_after_first)
          << "unmodified scope flushes put frames on the wire";
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// Coalesced mode: repeated writes to the same ghosted entity within one
// flush window must merge into a single framed delta batch per peer
// carrying the final value.
TEST_P(DistributedGraphTest, CoalescedWindowMergesRepeatedWrites) {
  LGraph g = PathGraph(8);
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      graphs[0].SetGhostSyncMode(GhostSyncMode::kCoalesced);
      const uint64_t msgs_before = ctx.comm().GetStats(ctx.id).messages_sent;
      LocalVid l = graphs[0].Lvid(3);
      // Three writes to the same boundary vertex within one window.
      for (double v : {10.0, 20.0, 30.0}) {
        graphs[0].vertex_data(l).x = v;
        graphs[0].MarkVertexModified(l);
        graphs[0].FlushVertexScope(l);
      }
      EXPECT_EQ(ctx.comm().GetStats(ctx.id).messages_sent, msgs_before)
          << "staged writes left before the window closed";
      EXPECT_EQ(graphs[0].coalesced_merges(), 2u);
      graphs[0].FlushDeltas();
      EXPECT_EQ(ctx.comm().GetStats(ctx.id).messages_sent, msgs_before + 1)
          << "one window must ship exactly one frame to the one peer";
      graphs[0].SetGhostSyncMode(GhostSyncMode::kPerScope);
    }
    ctx.barrier().Wait(ctx.id);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      // The peer observes only the final merged value.
      EXPECT_EQ(graphs[1].vertex_data(graphs[1].Lvid(3)).x, 30.0);
    }
  });
}

// Coalesced mode across three machines: a vertex mirrored on two peers
// and a modified cross-machine edge, written repeatedly in one window,
// reach each peer in exactly one frame with their final values and
// versions.
TEST_P(DistributedGraphTest, ThreeMachineWindowShipsOneFramePerPeer) {
  // Star 1 <- 0 -> 2, one vertex per machine: vertex 0's ghosts live on
  // machines 1 and 2, and edge 0->1 is replicated on machine 1.
  LGraph g;
  for (int i = 0; i < 3; ++i) g.AddVertex({static_cast<double>(i), 0});
  g.AddEdge(0, 1, {0.0});
  g.AddEdge(0, 2, {1.0});
  g.Finalize();
  auto atom_of = BlockPartition(3, 3);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3));
  std::vector<DGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      DGraph& m0 = graphs[0];
      m0.SetGhostSyncMode(GhostSyncMode::kCoalesced);
      const std::vector<uint64_t> before = SentPerPeer(ctx);
      const LocalVid l = m0.Lvid(0);
      const LocalEid e01 = m0.LeidOf(0, 1);
      for (double v : {10.0, 20.0, 30.0}) {
        m0.vertex_data(l).x = v;
        m0.MarkVertexModified(l);
        if (v != 20.0) {
          m0.edge_data(e01).w = v + 1;
          m0.MarkEdgeModified(e01);
        }
        m0.FlushVertexScope(l);
      }
      m0.FlushVertexScope(l);  // unchanged since: skipped, not merged
      EXPECT_EQ(SentPerPeer(ctx), before)
          << "staged writes left before the window closed";
      EXPECT_EQ(m0.coalesced_merges(), 3u);  // vertex twice, edge once
      EXPECT_EQ(m0.pushes_sent(), 2u * 3 + 2);  // 2 mirrors x 3, edge x 2
      EXPECT_EQ(m0.pushes_skipped(), 1u);
      m0.FlushDeltas();
      const std::vector<uint64_t> after = SentPerPeer(ctx);
      EXPECT_EQ(after[1], before[1] + 1);
      EXPECT_EQ(after[2], before[2] + 1);
      EXPECT_EQ(m0.delta_batches_sent(), 2u);
      m0.FlushDeltas();  // an empty window ships nothing
      EXPECT_EQ(SentPerPeer(ctx), after);
      m0.SetGhostSyncMode(GhostSyncMode::kPerScope);
    }
    ctx.barrier().Wait(ctx.id);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(ctx.id);
    if (ctx.id != 0) {
      DGraph& peer = graphs[ctx.id];
      const LocalVid ghost = peer.Lvid(0);
      EXPECT_EQ(peer.vertex_data(ghost).x, 30.0);
      EXPECT_EQ(peer.vertex_version(ghost), 3u);
      const LocalEid e = peer.LeidOf(0, ctx.id);
      EXPECT_EQ(peer.edge_data(e).w, ctx.id == 1 ? 31.0 : 1.0);
      EXPECT_EQ(peer.edge_version(e), ctx.id == 1 ? 2u : 0u);
    }
  });
}

// Coalesced staging from several threads at once, as the chromatic
// engine's batch workers do within a color-step: each thread writes and
// flushes its own share of one color class (so no two threads share a
// scope), then the window closes once.  Every replica must end up equal
// to its owner's copy.
TEST_P(DistributedGraphTest, ConcurrentStagersShipEveryGhost) {
  constexpr size_t kVertices = 256;
  constexpr size_t kThreads = 4;
  LGraph g = PathGraph(kVertices);
  auto atom_of = RandomPartition(kVertices, 2, 7);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  auto expected_x = [&](VertexId v) {
    return colors[v] == 0 ? 1000.0 + v : static_cast<double>(v);
  };
  auto expected_w = [&](VertexId s, VertexId d) {
    if (colors[s] == 0) return 5000.0 + s;
    if (colors[d] == 0) return 5000.0 + d;
    return static_cast<double>(s);  // PathGraph: edge s->s+1 has w = s
  };

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DGraph& dg = graphs[ctx.id];
    ASSERT_TRUE(
        dg.InitFromGlobal(g, atom_of, colors, placement, ctx.id, &ctx.comm())
            .ok());
    ctx.barrier().Wait(ctx.id);
    dg.SetGhostSyncMode(GhostSyncMode::kCoalesced);
    std::vector<LocalVid> step;  // this machine's color-0 vertices
    for (LocalVid l : dg.owned_vertices()) {
      if (dg.color(l) == 0) step.push_back(l);
    }
    std::vector<std::thread> stagers;
    for (size_t t = 0; t < kThreads; ++t) {
      stagers.emplace_back([&, t] {
        for (size_t i = t; i < step.size(); i += kThreads) {
          const LocalVid l = step[i];
          const VertexId gv = dg.Gvid(l);
          dg.vertex_data(l).x = expected_x(gv);
          dg.MarkVertexModified(l);
          for (auto edges : {dg.in_edges(l), dg.out_edges(l)}) {
            for (LocalEid e : edges) {
              dg.edge_data(e).w = 5000.0 + gv;
              dg.MarkEdgeModified(e);
            }
          }
          dg.FlushVertexScope(l);
        }
      });
    }
    for (std::thread& t : stagers) t.join();
    dg.FlushDeltas();
    EXPECT_EQ(dg.delta_batches_sent(), 1u) << "one frame to the one peer";
    EXPECT_EQ(dg.coalesced_merges(), 0u);
    dg.SetGhostSyncMode(GhostSyncMode::kPerScope);
    ctx.barrier().Wait(ctx.id);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(ctx.id);
    size_t ghosts = 0;
    for (LocalVid l = 0; l < dg.num_local_vertices(); ++l) {
      const VertexId gv = dg.Gvid(l);
      EXPECT_EQ(dg.vertex_data(l).x, expected_x(gv)) << "vertex " << gv;
      EXPECT_EQ(dg.vertex_version(l), colors[gv] == 0 ? 1u : 0u);
      ghosts += dg.is_owned(l) ? 0 : 1;
    }
    EXPECT_GT(ghosts, 0u);
    for (LocalEid e = 0; e < dg.num_local_edges(); ++e) {
      const VertexId s = dg.Gvid(dg.edge_source(e));
      const VertexId d = dg.Gvid(dg.edge_target(e));
      EXPECT_EQ(dg.edge_data(e).w, expected_w(s, d)) << s << "->" << d;
    }
  });
}

TEST_P(DistributedGraphTest, StaleVersionNotApplied) {
  // A push with an older version must not clobber fresher ghost data.
  LGraph g = PathGraph(4);
  auto atom_of = BlockPartition(4, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);

  // Hand-build single-vertex delta frames in the documented wire layout:
  // format byte, vertex column count, gvid column, version column, blob,
  // then an empty edge section.
  auto make_vertex_frame = [](VertexId gvid, uint64_t version, TV data) {
    OutArchive oa;
    oa << kGhostFrameVersion << uint32_t{1} << gvid << version << data
       << uint32_t{0};
    return oa;
  };

  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      // Craft a stale push (version 0 == initial) for ghosted vertex 1.
      LocalVid l = graphs[1].Lvid(1);
      OutArchive oa = make_vertex_frame(1, 0, TV{999.0, 0});
      InArchive ia(oa.buffer());
      graphs[1].ApplyDataPush(ia);
      EXPECT_TRUE(ia.ok());
      EXPECT_EQ(graphs[1].vertex_data(l).x, 1.0) << "stale push applied";
      // A fresh one (version 5) applies.
      OutArchive oa2 = make_vertex_frame(1, 5, TV{555.0, 0});
      InArchive ia2(oa2.buffer());
      graphs[1].ApplyDataPush(ia2);
      EXPECT_EQ(graphs[1].vertex_data(l).x, 555.0);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

TEST_P(DistributedGraphTest, TruncatedOrAlienPushDroppedCleanly) {
  // A corrupt ghost frame must not crash or corrupt state: unknown
  // format bytes and truncated frames are logged and dropped.
  LGraph g = PathGraph(4);
  auto atom_of = BlockPartition(4, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      LocalVid l = graphs[1].Lvid(1);
      const double before = graphs[1].vertex_data(l).x;
      // Old (pre-frame) tag format: leading byte 0 is not a valid format.
      OutArchive alien;
      alien << uint8_t{0} << VertexId{1} << uint64_t{9} << TV{777.0, 0};
      InArchive ia(alien.buffer());
      graphs[1].ApplyDataPush(ia);
      EXPECT_EQ(graphs[1].vertex_data(l).x, before);

      // Valid frame truncated at every prefix: never crashes, never
      // applies a half-read blob.  Prefixes long enough to carry the
      // complete vertex section legitimately apply it (decoding is
      // entity-at-a-time), so the value is either untouched or final —
      // anything else means a torn read.
      OutArchive full;
      full << kGhostFrameVersion << uint32_t{1} << VertexId{1} << uint64_t{9}
           << TV{777.0, 0} << uint32_t{0};
      for (size_t cut = 0; cut + 1 < full.size(); ++cut) {
        InArchive truncated(full.buffer().data(), cut);
        graphs[1].ApplyDataPush(truncated);
        double x = graphs[1].vertex_data(l).x;
        ASSERT_TRUE(x == before || x == 777.0)
            << "torn value " << x << " applied at cut " << cut;
      }
      // The intact frame (re)applies cleanly.
      InArchive whole(full.buffer());
      graphs[1].ApplyDataPush(whole);
      EXPECT_EQ(graphs[1].vertex_data(l).x, 777.0);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

TEST_P(DistributedGraphTest, LoadFromAtomFilesMatchesDirectIngress) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("glatoms_" + std::to_string(::getpid()) + "_" +
                     rpc::TransportKindName(GetParam()));
  std::filesystem::remove_all(dir);

  auto structure = gen::Mesh3D(4, 4, 4, 6);
  LGraph g = LGraph::FromStructure(structure);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.vertex_data(v).x = static_cast<double>(v) * 0.5;
  }
  auto colors = GreedyColoring(structure);
  auto atom_of = BfsPartition(structure, 8, 1);  // 8 atoms, 2 machines
  AtomIndex index;
  ASSERT_TRUE(WriteAtoms(g, atom_of, colors, 8, dir, &index).ok());
  auto placement = PlaceAtoms(index, 2);

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> from_files(2), direct(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(from_files[ctx.id]
                    .LoadAtoms(index, placement, ctx.id, &ctx.comm())
                    .ok());
    ASSERT_TRUE(direct[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });

  uint64_t total_owned = 0;
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(from_files[m].num_owned_vertices(),
              direct[m].num_owned_vertices());
    EXPECT_EQ(from_files[m].num_local_vertices(),
              direct[m].num_local_vertices());
    EXPECT_EQ(from_files[m].num_local_edges(), direct[m].num_local_edges());
    total_owned += from_files[m].num_owned_vertices();
    // Data made it through the journal.
    for (LocalVid l : from_files[m].owned_vertices()) {
      VertexId gv = from_files[m].Gvid(l);
      EXPECT_EQ(from_files[m].vertex_data(l).x, static_cast<double>(gv) * 0.5);
      EXPECT_EQ(from_files[m].color(l), colors[gv]);
    }
  }
  EXPECT_EQ(total_owned, structure.num_vertices);
  std::filesystem::remove_all(dir);
}

TEST_P(DistributedGraphTest, EveryEdgeIncidentToOwnedVertexPresent) {
  auto structure = gen::PowerLawWeb(300, 5, 0.8, 9);
  LGraph g = LGraph::FromStructure(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(300, 4, 2);
  std::vector<rpc::MachineId> placement = {0, 1, 2, 3};

  rpc::Runtime runtime(TestCluster(4));
  std::vector<DGraph> graphs(4);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });
  // Count each edge on the owner(s): edges with endpoints on two machines
  // appear twice, intra-machine edges once.
  uint64_t expected = 0;
  for (auto [u, v] : structure.edges) {
    expected += (atom_of[u] == atom_of[v]) ? 1 : 2;
  }
  uint64_t actual = 0;
  for (auto& dg : graphs) actual += dg.num_local_edges();
  EXPECT_EQ(actual, expected);
}

TEST_P(DistributedGraphTest, BulkFlushSynchronizesAllBoundaries) {
  LGraph g = PathGraph(16);
  auto atom_of = BlockPartition(16, 4);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1, 2, 3};
  rpc::Runtime runtime(TestCluster(4));
  std::vector<DGraph> graphs(4);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    // Everyone rewrites all owned vertices, then bulk-flushes.
    for (LocalVid l : graphs[ctx.id].owned_vertices()) {
      graphs[ctx.id].vertex_data(l).x += 100.0;
      graphs[ctx.id].MarkVertexModified(l);
    }
    graphs[ctx.id].FlushAllOwnedBulk();
    ctx.barrier().Wait(ctx.id);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(ctx.id);
    // All ghosts must now show +100.
    for (LocalVid l = 0; l < graphs[ctx.id].num_local_vertices(); ++l) {
      VertexId gv = graphs[ctx.id].Gvid(l);
      EXPECT_EQ(graphs[ctx.id].vertex_data(l).x,
                static_cast<double>(gv) + 100.0);
    }
    // One frame per neighbouring block; a pass with nothing modified
    // skips every owned vertex and sends nothing.
    const bool end_block = ctx.id == 0 || ctx.id == 3;
    EXPECT_EQ(graphs[ctx.id].delta_batches_sent(), end_block ? 1u : 2u);
    EXPECT_EQ(graphs[ctx.id].pushes_sent(), end_block ? 1u : 2u);
    const std::vector<uint64_t> sent = SentPerPeer(ctx);
    graphs[ctx.id].FlushAllOwnedBulk();
    EXPECT_EQ(SentPerPeer(ctx), sent);
    EXPECT_EQ(graphs[ctx.id].pushes_skipped(), 4u);
  });
}

// The bulk pass closes the same window as FlushDeltas(): entities staged
// earlier by scope flushes ride in the bulk frame.
TEST_P(DistributedGraphTest, BulkFlushShipsStagedEntitiesInOneFrame) {
  LGraph g = PathGraph(8);
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      DGraph& m0 = graphs[0];
      m0.SetGhostSyncMode(GhostSyncMode::kCoalesced);
      const LocalEid e34 = m0.LeidOf(3, 4);
      m0.edge_data(e34).w = 34.0;
      m0.MarkEdgeModified(e34);
      m0.FlushVertexScope(m0.Lvid(3));  // stages the edge only
      for (LocalVid l : m0.owned_vertices()) {
        m0.vertex_data(l).x += 100.0;
        m0.MarkVertexModified(l);
      }
      const std::vector<uint64_t> before = SentPerPeer(ctx);
      m0.FlushAllOwnedBulk();
      EXPECT_EQ(SentPerPeer(ctx)[1], before[1] + 1);
      EXPECT_EQ(m0.delta_batches_sent(), 1u);
      EXPECT_EQ(m0.pushes_sent(), 2u);  // edge 3-4 and vertex 3
      m0.SetGhostSyncMode(GhostSyncMode::kPerScope);
    }
    ctx.barrier().Wait(ctx.id);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      EXPECT_EQ(graphs[1].vertex_data(graphs[1].Lvid(3)).x, 103.0);
      EXPECT_EQ(graphs[1].edge_data(graphs[1].LeidOf(3, 4)).w, 34.0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, DistributedGraphTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

}  // namespace
}  // namespace graphlab
