// Integration tests for the execution engines: shared-memory, chromatic,
// locking — all running PageRank to convergence and checked against the
// exact power-iteration solution; plus scheduler unit tests, the
// CreateEngine/CreateScheduler factories' error paths, consistency model
// enforcement, the sync operation, and the distributed engines' signal
// windows and handler lifetimes over both transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/signal_frame.h"
#include "graphlab/engine/shared_memory_engine.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/scheduler/scheduler.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::BuildPageRankGraph;
using apps::ExactPageRank;
using apps::MakePageRankUpdateFn;
using apps::PageRankEdge;
using apps::PageRankVertex;

using DPRGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

rpc::ClusterOptions TestCluster(size_t machines, uint64_t latency_us = 0) {
  rpc::ClusterOptions o;
  o.num_machines = machines;
  o.comm.latency = std::chrono::microseconds(latency_us);
  return o;
}

// ---------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------

class SchedulerParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerParamTest, SetSemantics) {
  auto sched = std::move(CreateScheduler(GetParam(), 100).value());
  sched->Schedule(5, 1.0);
  sched->Schedule(5, 2.0);  // duplicate collapses
  sched->Schedule(9, 1.0);
  EXPECT_EQ(sched->ApproxSize(), 2u);
  LocalVid v;
  double p;
  std::set<LocalVid> seen;
  while (sched->GetNext(&v, &p)) seen.insert(v);
  EXPECT_EQ(seen, (std::set<LocalVid>{5, 9}));
  EXPECT_TRUE(sched->Empty());
}

TEST_P(SchedulerParamTest, EveryScheduledVertexEventuallyPops) {
  auto sched = std::move(CreateScheduler(GetParam(), 1000).value());
  for (LocalVid v = 0; v < 1000; v += 3) sched->Schedule(v, 1.0);
  std::set<LocalVid> seen;
  LocalVid v;
  double p;
  while (sched->GetNext(&v, &p)) seen.insert(v);
  EXPECT_EQ(seen.size(), 334u);
}

TEST_P(SchedulerParamTest, ClearEmpties) {
  auto sched = std::move(CreateScheduler(GetParam(), 10).value());
  sched->Schedule(1, 1.0);
  sched->Clear();
  EXPECT_TRUE(sched->Empty());
  LocalVid v;
  double p;
  EXPECT_FALSE(sched->GetNext(&v, &p));
}

TEST_P(SchedulerParamTest, RescheduleAfterPopWorks) {
  auto sched = std::move(CreateScheduler(GetParam(), 10).value());
  sched->Schedule(3, 1.0);
  LocalVid v;
  double p;
  ASSERT_TRUE(sched->GetNext(&v, &p));
  sched->Schedule(3, 1.0);
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 3u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerParamTest,
                         ::testing::Values("fifo", "sweep", "priority"));

TEST(SchedulerFactoryTest, UnknownNameReturnsInvalidArgument) {
  auto sched = CreateScheduler("no-such-scheduler", 10);
  ASSERT_FALSE(sched.ok());
  EXPECT_EQ(sched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sched.status().message().find("no-such-scheduler"),
            std::string::npos);
}

TEST(SchedulerFactoryTest, RoutesThroughEngineOptions) {
  EngineOptions options;
  options.scheduler = "priority";
  auto sched = std::move(CreateScheduler(options, 10).value());
  EXPECT_STREQ(sched->name(), "priority");
}

TEST(PrioritySchedulerTest, PopsHighestFirst) {
  auto sched = std::move(CreateScheduler("priority", 10).value());
  sched->Schedule(1, 1.0);
  sched->Schedule(2, 5.0);
  sched->Schedule(3, 3.0);
  LocalVid v;
  double p;
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(p, 5.0);
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 3u);
}

TEST(PrioritySchedulerTest, MergeKeepsMaxPriority) {
  auto sched = std::move(CreateScheduler("priority", 10).value());
  sched->Schedule(1, 2.0);
  sched->Schedule(1, 7.0);
  sched->Schedule(2, 5.0);
  LocalVid v;
  double p;
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(p, 7.0);
}

// ---------------------------------------------------------------------
// Engine factory error paths
// ---------------------------------------------------------------------

TEST(EngineFactoryTest, UnknownLocalEngineReturnsInvalidArgument) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  auto engine = CreateEngine("no-such-engine", &g, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineFactoryTest, BadSchedulerNameSurfacesAsStatus) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  EngineOptions options;
  options.scheduler = "no-such-scheduler";
  auto engine = CreateEngine("shared_memory", &g, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineFactoryTest, ZeroThreadsRejected) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  EngineOptions options;
  options.num_threads = 0;
  auto engine = CreateEngine("shared_memory", &g, options);
  ASSERT_FALSE(engine.ok());
}

TEST(EngineFactoryTest, UnfinalizedGraphRejected) {
  apps::PageRankGraph g;
  g.AddVertices(4);
  auto engine = CreateEngine("shared_memory", &g, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Shared-memory engine (selected through the factory)
// ---------------------------------------------------------------------

TEST(SharedMemoryEngineTest, PageRankConvergesToExact) {
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 11);
  auto g = BuildPageRankGraph(structure);
  auto exact = ExactPageRank(g);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.scheduler = "fifo";
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  EXPECT_STREQ(engine->name(), "shared_memory");
  engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-9));
  engine->ScheduleAll();
  RunResult result = engine->Start();
  EXPECT_GT(result.updates, structure.num_vertices);
  EXPECT_EQ(engine->last_result().updates, result.updates);
  EXPECT_EQ(engine->metrics().updates, result.updates);
  EXPECT_LT(apps::PageRankL1Error(g, exact), 1e-3);
}

TEST(SharedMemoryEngineTest, DynamicDoesFewerUpdatesThanUniform) {
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 12);

  auto run_with_tol = [&](double tol) {
    auto g = BuildPageRankGraph(structure);
    EngineOptions opts;
    opts.num_threads = 2;
    auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, tol));
    engine->ScheduleAll();
    return engine->Start().updates;
  };
  // Tight tolerance does strictly more updates than loose tolerance.
  EXPECT_GT(run_with_tol(1e-8), run_with_tol(1e-2));
}

TEST(SharedMemoryEngineTest, UpdateCountingWorks) {
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 13);
  auto g = BuildPageRankGraph(structure);
  auto engine =
      std::move(CreateEngine("shared_memory", &g, EngineOptions{}).value());
  engine->EnableUpdateCounting();
  engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-4));
  engine->ScheduleAll();
  RunResult r = engine->Start();
  uint64_t counted = 0;
  for (uint32_t c : engine->update_counts()) counted += c;
  EXPECT_EQ(counted, r.updates);
  // Every vertex ran at least once.
  for (uint32_t c : engine->update_counts()) EXPECT_GE(c, 1u);
}

TEST(SharedMemoryEngineTest, MaxUpdatesSlicesRun) {
  // Direct construction (the factory is a convenience, not a requirement)
  // plus the slicing path of Start().
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 14);
  auto g = BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 1;
  SharedMemoryEngine<PageRankVertex, PageRankEdge> engine(&g, opts);
  engine.SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-9));
  engine.ScheduleAll();
  RunResult slice = engine.Start(/*max_updates=*/100);
  EXPECT_LE(slice.updates, 110u);  // small overshoot from in-flight updates
  EXPECT_FALSE(engine.ScheduleEmpty());
  engine.Start();  // drain to convergence
  EXPECT_TRUE(engine.ScheduleEmpty());
}

TEST(SharedMemoryEngineTest, AbortAndJoinDrainsAndStops) {
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 15);
  auto g = BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 2;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  // An update function that keeps rescheduling itself forever.
  engine->SetUpdateFn([](Context<apps::PageRankGraph>& ctx) {
    ctx.ScheduleSelf(1.0);
  });
  engine->ScheduleAll();
  std::thread aborter([&engine] {
    // Abort only after at least one update ran — a fixed sleep flakes
    // under parallel-ctest CPU contention when workers start late.
    Timer deadline;
    while (engine->total_updates() == 0 && deadline.Seconds() < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine->AbortAndJoin();
  });
  RunResult r = engine->Start();
  aborter.join();
  EXPECT_TRUE(engine->aborted());
  EXPECT_GT(r.updates, 0u);
  // Aborted engines drop new schedules and run nothing further.
  engine->ScheduleAll();
  EXPECT_EQ(engine->Start().updates, 0u);
}

TEST(SharedMemoryEngineTest, AbortFromInsideUpdateFunctionReturns) {
  // An update function may abort its own engine (e.g. on detecting
  // convergence); the call must flag-and-return, not self-join.
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 16);
  auto g = BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 2;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  std::atomic<uint64_t> executed{0};
  IEngine<apps::PageRankGraph>* raw = engine.get();
  engine->SetUpdateFn([&executed, raw](Context<apps::PageRankGraph>& ctx) {
    ctx.ScheduleSelf(1.0);  // would run forever without the abort
    if (executed.fetch_add(1) == 200) raw->AbortAndJoin();
  });
  engine->ScheduleAll();
  RunResult r = engine->Start();  // must return, not deadlock
  EXPECT_TRUE(engine->aborted());
  EXPECT_GT(r.updates, 200u);
}

// ---------------------------------------------------------------------
// Distributed engines on PageRank
// ---------------------------------------------------------------------

struct DistributedPageRankResult {
  double l1_error = 0.0;
  uint64_t updates = 0;
};

/// Runs distributed PageRank on `machines` machines with the given engine
/// kind ("chromatic" or "locking") and returns the error vs exact.
DistributedPageRankResult RunDistributedPageRank(const std::string& kind,
                                                 size_t machines,
                                                 uint64_t latency_us) {
  auto structure = gen::PowerLawWeb(1500, 5, 0.8, 21);
  auto global = BuildPageRankGraph(structure);
  auto exact = ExactPageRank(global);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, machines, 3);
  std::vector<rpc::MachineId> placement(machines);
  for (size_t i = 0; i < machines; ++i) placement[i] = i;

  rpc::Runtime runtime(TestCluster(machines, latency_us));
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<DPRGraph> graphs(machines);
  std::atomic<uint64_t> total_updates{0};

  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.max_pipeline_length = 64;
    opts.scheduler = "fifo";
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine(kind, ctx, &graph, opts, deps).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<DPRGraph>(0.85, 1e-7));
    engine->ScheduleAll();
    RunResult result = engine->Start();
    if (ctx.id == 0) total_updates.store(result.updates);
  });

  // Gather ranks from the owners and compare against exact.
  DistributedPageRankResult out;
  out.updates = total_updates.load();
  std::vector<double> ranks(structure.num_vertices, 0.0);
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      ranks[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  }
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    out.l1_error += std::fabs(ranks[v] - exact[v]);
  }
  return out;
}

TEST(ChromaticEngineTest, DistributedPageRankMatchesExact) {
  auto result = RunDistributedPageRank("chromatic", 4, 0);
  EXPECT_GT(result.updates, 1500u);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(ChromaticEngineTest, WorksWithLatency) {
  auto result = RunDistributedPageRank("chromatic", 3, 100);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(ChromaticEngineTest, SingleMachineDegenerate) {
  auto result = RunDistributedPageRank("chromatic", 1, 0);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, DistributedPageRankMatchesExact) {
  auto result = RunDistributedPageRank("locking", 4, 0);
  EXPECT_GT(result.updates, 1500u);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, WorksWithLatency) {
  auto result = RunDistributedPageRank("locking", 3, 100);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, SingleMachineDegenerate) {
  auto result = RunDistributedPageRank("locking", 1, 0);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, DeepPipelineStillCorrect) {
  auto structure = gen::PowerLawWeb(800, 5, 0.8, 22);
  auto global = BuildPageRankGraph(structure);
  auto exact = ExactPageRank(global);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 4);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3, 50));
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<DPRGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.max_pipeline_length = 2000;
    opts.scheduler = "priority";
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine("locking", ctx, &graph, opts, deps).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<DPRGraph>(0.85, 1e-7));
    engine->ScheduleAll();
    engine->Start();
  });
  double err = 0;
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      err += std::fabs(graph.vertex_data(l).rank - exact[graph.Gvid(l)]);
    }
  }
  EXPECT_LT(err, 1e-2);
}

// ---------------------------------------------------------------------
// Signal windows, over both transports: a ghost signal costs one bit in
// the chromatic engine, and the locking engine keeps one scope request
// in flight per vertex without losing a signal.
// ---------------------------------------------------------------------

/// Signal counters summed over the machines of one run.
struct SignalCounters {
  uint64_t coalesced = 0;     // sched.signals_coalesced
  uint64_t frames = 0;        // sched.signal_frames
  uint64_t empty_scopes = 0;  // locking.empty_scopes
  uint64_t sweeps = 0;
  uint64_t max_frames_per_machine = 0;
  uint64_t messages = 0;       // RunResult::messages_sent
  uint64_t delta_batches = 0;  // graph.delta_batches_sent during Start()
};

/// A star: hub 0 on machine 1, leaves 1..`leaves` on machine 0, one edge
/// leaf -> hub each.  The hub is a ghost on machine 0.
GraphStructure Star(uint64_t leaves) {
  GraphStructure s;
  s.num_vertices = leaves + 1;
  for (VertexId v = 1; v <= leaves; ++v) s.edges.emplace_back(v, 0);
  return s;
}

/// Runs `engine_name` on two machines, vertex v on machine `owner[v]`.
/// The update function counts executions per global vertex in `runs`,
/// then calls `body(ctx, run)` (run 1 is the vertex's first execution).
/// `seed(engine, graph, machine)` runs on every machine after all engines
/// exist and before Start().
SignalCounters RunSignalCluster(
    rpc::TransportKind kind, const std::string& engine_name,
    const GraphStructure& structure, const PartitionAssignment& owner,
    std::vector<std::atomic<uint32_t>>* runs,
    const std::function<void(Context<DPRGraph>&, uint32_t)>& body,
    const std::function<void(IEngine<DPRGraph>*, DPRGraph&,
                             rpc::MachineContext&)>& seed) {
  constexpr size_t kMachines = 2;
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(testutil::ClusterFor(kind, kMachines));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<DPRGraph> graphs(kMachines);
  std::vector<SignalCounters> per(kMachines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, owner, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.max_pipeline_length = 64;
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    auto engine = std::move(
        CreateEngine(engine_name, ctx, &graph, opts, deps).value());
    engine->SetUpdateFn([&](Context<DPRGraph>& c) {
      body(c, (*runs)[c.vertex_id()].fetch_add(1) + 1);
    });
    ctx.barrier().Wait(ctx.id);  // every forward handler is registered
    seed(engine.get(), graph, ctx);
    const uint64_t batches_before = graph.delta_batches_sent();
    RunResult r = engine->Start();
    per[ctx.id].messages = r.messages_sent;
    per[ctx.id].delta_batches = graph.delta_batches_sent() - batches_before;
    metrics::MetricsRegistry& reg = ctx.metrics();
    per[ctx.id].coalesced = reg.counter("sched.signals_coalesced")->Value();
    per[ctx.id].frames = reg.counter("sched.signal_frames")->Value();
    per[ctx.id].empty_scopes = reg.counter("locking.empty_scopes")->Value();
    per[ctx.id].sweeps = r.sweeps;
  });
  SignalCounters total;
  for (const SignalCounters& m : per) {
    total.coalesced += m.coalesced;
    total.frames += m.frames;
    total.empty_scopes += m.empty_scopes;
    total.sweeps = std::max(total.sweeps, m.sweeps);
    total.max_frames_per_machine =
        std::max(total.max_frames_per_machine, m.frames);
    total.messages += m.messages;
    total.delta_batches += m.delta_batches;
  }
  return total;
}

PartitionAssignment StarOwners(uint64_t leaves) {
  PartitionAssignment owner(leaves + 1, 0);
  owner[0] = 1;
  return owner;
}

class SignalWindowTest
    : public ::testing::TestWithParam<rpc::TransportKind> {};

TEST_P(SignalWindowTest, ChromaticCoalescesGhostSignalsPerColorStep) {
  constexpr uint64_t kLeaves = 64;
  constexpr uint32_t kRepeats = 3;
  std::vector<std::atomic<uint32_t>> runs(kLeaves + 1);
  SignalCounters c = RunSignalCluster(
      GetParam(), "chromatic", Star(kLeaves), StarOwners(kLeaves), &runs,
      [](Context<DPRGraph>& ctx, uint32_t) {
        for (uint32_t i = 0; i < kRepeats; ++i) {
          for (auto e : ctx.out_edges()) ctx.Schedule(ctx.edge_target(e));
        }
      },
      [](IEngine<DPRGraph>* engine, DPRGraph&, rpc::MachineContext& ctx) {
        if (ctx.id == 0) engine->ScheduleAll();
      });
  EXPECT_EQ(runs[0].load(), 1u);
  for (VertexId v = 1; v <= kLeaves; ++v) EXPECT_EQ(runs[v].load(), 1u);
  // 64 leaves x 3 signals to one ghost: one bit, one entry, one frame.
  EXPECT_EQ(c.coalesced, kLeaves * kRepeats - 1);
  EXPECT_EQ(c.frames, 1u);
  const uint64_t colors = 2, peers = 1;
  EXPECT_LE(c.max_frames_per_machine, colors * peers * c.sweeps);
}

TEST_P(SignalWindowTest, ChromaticClosesEachColorStepInOneBarrierRound) {
  // Every message of a chromatic run is a signal frame, a delta batch or
  // part of a collective round of 2 x machines messages (n enters + n
  // releases, or n contributions + n results).  The rounds are one
  // barrier per color-step plus the Start() alignment, and one allreduce
  // per sweep plus the final update count.  Barrier + quiescence +
  // barrier would add one more round per color-step.
  constexpr uint64_t kLeaves = 64;
  std::vector<std::atomic<uint32_t>> runs(kLeaves + 1);
  SignalCounters c = RunSignalCluster(
      GetParam(), "chromatic", Star(kLeaves), StarOwners(kLeaves), &runs,
      [](Context<DPRGraph>& ctx, uint32_t run) {
        ctx.vertex_data().rank += 1.0;  // a ghost write on every leaf
        if (run == 1) {
          for (auto e : ctx.out_edges()) ctx.Schedule(ctx.edge_target(e));
        }
      },
      [](IEngine<DPRGraph>* engine, DPRGraph&, rpc::MachineContext&) {
        engine->ScheduleAll();
      });
  const uint64_t machines = 2, colors = 2;
  const uint64_t rounds = 1 + c.sweeps * colors + c.sweeps + 1;
  EXPECT_GE(c.sweeps, 2u);
  EXPECT_GT(c.delta_batches, 0u);
  EXPECT_LE(c.messages, c.frames + c.delta_batches + 2 * machines * rounds);
}

TEST_P(SignalWindowTest, ChromaticRunsGhostScheduledBeforeStart) {
  constexpr uint64_t kLeaves = 8;
  std::vector<std::atomic<uint32_t>> runs(kLeaves + 1);
  SignalCounters c = RunSignalCluster(
      GetParam(), "chromatic", Star(kLeaves), StarOwners(kLeaves), &runs,
      [](Context<DPRGraph>&, uint32_t) {},
      [](IEngine<DPRGraph>* engine, DPRGraph& graph,
         rpc::MachineContext& ctx) {
        if (ctx.id == 0) engine->Schedule(graph.Lvid(0));  // a ghost here
      });
  EXPECT_EQ(runs[0].load(), 1u);
  for (VertexId v = 1; v <= kLeaves; ++v) EXPECT_EQ(runs[v].load(), 0u);
  EXPECT_EQ(c.frames, 1u);
}

TEST_P(SignalWindowTest, LockingLosesNoSignalToAnInFlightScope) {
  // Vertex 0 (machine 0) signals itself and its remote neighbour 1
  // (machine 1) k times from inside its first update, while its own
  // scope is granted, then lingers so an idle worker pops it meanwhile.
  // The self-signals must re-run it exactly once after release; the k
  // ghost signals ride one staged frame.
  constexpr uint32_t kSignals = 50;
  GraphStructure path;
  path.num_vertices = 4;
  path.edges = {{0, 1}, {1, 2}, {2, 3}};
  const PartitionAssignment owner = {0, 1, 0, 1};
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::atomic<uint32_t>> runs(path.num_vertices);
    SignalCounters c = RunSignalCluster(
        GetParam(), "locking", path, owner, &runs,
        [](Context<DPRGraph>& ctx, uint32_t run) {
          if (ctx.vertex_id() != 0 || run != 1) return;
          for (uint32_t i = 0; i < kSignals; ++i) {
            ctx.ScheduleSelf();
            for (auto e : ctx.out_edges()) ctx.Schedule(ctx.edge_target(e));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        },
        [](IEngine<DPRGraph>* engine, DPRGraph& graph,
           rpc::MachineContext& ctx) {
          if (ctx.id == 0) engine->Schedule(graph.Lvid(0));
        });
    EXPECT_EQ(runs[0].load(), 2u) << "rep " << rep;
    EXPECT_GE(runs[1].load(), 1u) << "rep " << rep;
    EXPECT_LE(runs[1].load(), 2u) << "rep " << rep;
    EXPECT_EQ(runs[2].load(), 0u);
    EXPECT_EQ(runs[3].load(), 0u);
    EXPECT_EQ(c.frames, 1u) << "rep " << rep;
  }
}

TEST_P(SignalWindowTest, CorruptForwardFrameIsDroppedNotFatal) {
  constexpr uint64_t kLeaves = 4;
  auto corrupt_frame = [] {
    OutArchive oa;
    oa << VertexId{0} << 1.0 << uint8_t{0};     // hub: owned by machine 1
    oa << VertexId{9999} << 1.0 << uint8_t{0};  // not local anywhere
    oa << VertexId{1} << 1.0 << uint8_t{0};     // a leaf: a ghost there
    oa << VertexId{0} << 1.0 << uint8_t{7};     // unknown kind
    oa << uint16_t{0xBEEF};                     // truncated tail
    return oa;
  };
  std::vector<std::atomic<uint32_t>> runs(kLeaves + 1);
  uint64_t decoded = 0, delivered = 0;
  RunSignalCluster(
      GetParam(), "chromatic", Star(kLeaves), StarOwners(kLeaves), &runs,
      [](Context<DPRGraph>&, uint32_t) {},
      [&](IEngine<DPRGraph>*, DPRGraph& graph, rpc::MachineContext& ctx) {
        if (ctx.id == 0) {
          ctx.comm().Send(0, 1, kScheduleForwardHandler, corrupt_frame());
        } else {
          // The shared decoder counts every decoded entry (the locking
          // engine's termination count) but delivers only the owned one.
          OutArchive oa = corrupt_frame();
          InArchive ia(oa.buffer());
          decoded = DecodeSignalFrame(graph, ia,
                                      [&](LocalVid, double, SignalKind) {
                                        ++delivered;
                                      });
        }
      });
  EXPECT_EQ(decoded, 4u);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(runs[0].load(), 1u);
  for (VertexId v = 1; v <= kLeaves; ++v) EXPECT_EQ(runs[v].load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, SignalWindowTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

// ---------------------------------------------------------------------
// Handler lifetimes, over both transports: frames that reach a machine
// after its locking engine is gone are counted and dropped, never run on
// the freed engine or lock manager.
// ---------------------------------------------------------------------

class HandlerLifetimeTest
    : public ::testing::TestWithParam<rpc::TransportKind> {};

TEST_P(HandlerLifetimeTest, LockingFramesAfterDestructionAreDropped) {
  constexpr rpc::HandlerId kMarker = 240;  // registered by this test only
  GraphStructure path;
  path.num_vertices = 4;
  path.edges = {{0, 1}, {1, 2}, {2, 3}};
  const PartitionAssignment owner = {0, 1, 0, 1};
  auto global = BuildPageRankGraph(path);
  auto colors = GreedyColoring(path);
  const std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(testutil::ClusterFor(GetParam(), 2));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<DPRGraph> graphs(2);
  std::atomic<bool> marker{false};
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, owner, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.comm().RegisterHandler(ctx.id, kMarker, [&](rpc::MachineId,
                                                    InArchive&) {
      marker.store(true);
    });
    ctx.barrier().Wait(ctx.id);
    {
      DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
      deps.allreduce = &allreduce.at(ctx.id);
      auto engine = CreateEngine("locking", ctx, &graph, EngineOptions{},
                                 deps);
      ASSERT_TRUE(engine.ok());
      ctx.barrier().Wait(ctx.id);  // every engine exists
    }
    ctx.barrier().Wait(ctx.id);  // every engine is gone
    if (ctx.id == 0) {
      // A lock-chain hop for vertex 1 (owned by machine 1) and a signal
      // to it, then a marker on the same FIFO channel.
      OutArchive hop;
      hop << uint64_t{1} << VertexId{1} << std::vector<rpc::MachineId>{1}
          << uint64_t{0} << rpc::MachineId{0};
      ctx.comm().Send(0, 1, kLockChainHandler, std::move(hop));
      OutArchive signal;
      signal << VertexId{1} << 1.0 << uint8_t{0};
      ctx.comm().Send(0, 1, kScheduleForwardHandler, std::move(signal));
      ctx.comm().Send(0, 1, kMarker, OutArchive());
    } else {
      Timer timer;
      while (!marker.load() && timer.Seconds() < 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_TRUE(marker.load());
      EXPECT_EQ(
          ctx.metrics().counter("rpc.frames_dropped_no_handler")->Value(),
          2u);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, HandlerLifetimeTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

// ---------------------------------------------------------------------
// Sync operation
// ---------------------------------------------------------------------

TEST(SyncTest, ComputesGlobalAggregateWithFinalize) {
  // Sum of ranks over all machines, finalized into a mean.
  auto structure = gen::PowerLawWeb(400, 4, 0.8, 31);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 5);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3));
  SyncManager<DPRGraph> sync(&runtime.comm());
  std::vector<DPRGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    sync.AttachGraph(ctx.id, &graphs[ctx.id]);
    if (ctx.id == 0) {
      sync.Register<double>(
          "mean_rank", 0.0,
          [](const DPRGraph& g, LocalVid l, double* acc) {
            *acc += g.vertex_data(l).rank;
          },
          [](double* a, const double& b) { *a += b; },
          [](double* a, uint64_t n) { *a /= static_cast<double>(n); });
    }
    ctx.barrier().Wait(ctx.id);
    sync.RunSyncBlocking("mean_rank", ctx.id);
    // All ranks start at 1.0, so the mean is 1.0 on every machine.
    EXPECT_NEAR(sync.Get<double>("mean_rank", ctx.id), 1.0, 1e-12);
    ctx.barrier().Wait(ctx.id);
  });
}

TEST(SyncTest, RoundsAdvanceMonotonically) {
  auto structure = gen::Grid2D(10, 10);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, 2);
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  SyncManager<DPRGraph> sync(&runtime.comm());
  std::vector<DPRGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    sync.AttachGraph(ctx.id, &graphs[ctx.id]);
    if (ctx.id == 0) {
      sync.Register<uint64_t>(
          "count", uint64_t{0},
          [](const DPRGraph&, LocalVid, uint64_t* acc) { *acc += 1; },
          [](uint64_t* a, const uint64_t& b) { *a += b; });
    }
    ctx.barrier().Wait(ctx.id);
    for (int round = 1; round <= 3; ++round) {
      sync.RunSyncBlocking("count", ctx.id);
      EXPECT_EQ(sync.PublishedRound("count", ctx.id),
                static_cast<uint64_t>(round));
      EXPECT_EQ(sync.Get<uint64_t>("count", ctx.id), 100u);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// ---------------------------------------------------------------------
// Consistency model scope rights
// ---------------------------------------------------------------------

TEST(ContextTest, VertexConsistencyForbidsNeighborAccess) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  Context<apps::PageRankGraph> ctx(&g, 4, 1.0,
                                   ConsistencyModel::kVertexConsistency,
                                   nullptr, [](void*, LocalVid, double) {});
  EXPECT_DEATH(ctx.neighbor_data(1), "consistency");
}

TEST(ContextTest, EdgeConsistencyForbidsNeighborWrite) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  Context<apps::PageRankGraph> ctx(&g, 4, 1.0,
                                   ConsistencyModel::kEdgeConsistency,
                                   nullptr, [](void*, LocalVid, double) {});
  EXPECT_DEATH(ctx.mutable_neighbor_data(1), "full consistency");
}

TEST(ContextTest, FullConsistencyAllowsNeighborWrite) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  Context<apps::PageRankGraph> ctx(&g, 4, 1.0,
                                   ConsistencyModel::kFullConsistency,
                                   nullptr, [](void*, LocalVid, double) {});
  ctx.mutable_neighbor_data(1).rank = 2.0;
  EXPECT_EQ(g.vertex_data(1).rank, 2.0);
}

}  // namespace
}  // namespace graphlab
