// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The Chromatic Engine (Sec. 4.2.1).
//
// Given a vertex coloring of the data graph, the edge consistency model is
// satisfied by executing, synchronously, all scheduled vertices of one
// color (a "color-step") before moving to the next color.  Full consistency
// uses a second-order coloring and vertex consistency a single color — the
// engine itself is agnostic: it trusts the colors stored in the graph.
//
// Inside a color-step, changes to ghosts are communicated *asynchronously
// as they are made* (FlushVertexScope after each update), making full use
// of network bandwidth and processor time; a full communication barrier
// separates color-steps.  That barrier is one counting round
// (rpc::Barrier::WaitFlushed): every machine's enter frame carries its
// per-peer sent counts, and the release tells each machine how many
// messages to handle before it moves on.  The window's traffic is ghost
// delta frames and signal frames, whose handlers send nothing, which is
// the precondition that lets one round replace barrier + quiescence +
// barrier.  Sync operations run between color-steps.  The color-step
// batches execute on the substrate's self-scheduling batch workers; the
// engine itself owns no threads.
//
// Signals to ghosts cost one bit.  Schedule() of a ghost sets its bit in
// a per-engine bitset; repeated signals merge into that bit
// (sched.signals_coalesced).  The color-step is the signal window: when
// it ends, before the ghost delta flush and the communication barrier,
// the engine ships one forward frame per owner machine
// (engine/signal_frame.h).  Start() ships one more on entry for schedules
// made before the run.  The barrier's drain waits for the frames, so
// the next color-step and the sweep-end pending count see them, just
// as they would have seen one message per signal: a ghost neighbour of a
// color-c vertex has a different color, so it could not have run in
// color-step c anyway.
//
// One engine instance lives on each machine; Start() is collective.

#ifndef GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
#define GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/signal_frame.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/timer.h"

namespace graphlab {

template <typename VertexData, typename EdgeData,
          StorageLayout Layout = StorageLayout::kSoA>
class ChromaticEngine final
    : public EngineBase<DistributedGraph<VertexData, EdgeData, Layout>> {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData, Layout>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  /// `sync` may be nullptr when no sync ops are used.
  ChromaticEngine(rpc::MachineContext ctx, GraphType* graph,
                  SyncManager<GraphType>* sync, SumAllReduce* allreduce,
                  EngineOptions options)
      : Base(std::move(options)),
        ctx_(ctx),
        graph_(graph),
        sync_(sync),
        allreduce_(allreduce),
        scheduled_(graph->num_local_vertices()),
        ghost_signals_(graph->num_local_vertices()),
        signals_coalesced_(this->metrics_->counter("sched.signals_coalesced")),
        signal_frames_(this->metrics_->counter("sched.signal_frames")) {
    forward_registration_ = ctx_.comm().RegisterHandler(
        ctx_.id, kScheduleForwardHandler,
        [this](rpc::MachineId, InArchive& ia) {
          DecodeSignalFrame(*graph_, ia, [this](LocalVid l, double,
                                                SignalKind) {
            if (scheduled_.SetBit(l)) pending_.fetch_add(1);
          });
        });
  }

  /// A machine that aborts leaves its color-step without draining, so
  /// peers' signal frames may still be in flight: drop the handler, and
  /// wait out a running dispatch of it, before the state it uses dies.
  ~ChromaticEngine() override {
    ctx_.comm().UnregisterHandler(ctx_.id, kScheduleForwardHandler,
                                  forward_registration_);
  }

  const char* name() const override { return "chromatic"; }

  /// Seeds T with one vertex (owned or ghost; ghosts are forwarded at
  /// the end of the color-step, or on Start() entry).
  void Schedule(LocalVid l, double /*priority*/ = 1.0) override {
    if (this->substrate_.aborted()) return;
    if (graph_->is_owned(l)) {
      if (scheduled_.SetBit(l)) pending_.fetch_add(1);
    } else if (!ghost_signals_.SetBit(l)) {
      signals_coalesced_->Inc();
    }
  }

  /// Seeds T with every vertex owned by this machine.
  void ScheduleAll(double priority = 1.0) override {
    for (LocalVid l : graph_->owned_vertices()) Schedule(l, priority);
  }
  void ScheduleAllOwned(double priority = 1.0) { ScheduleAll(priority); }

  /// Executes the schedule to completion (or options().max_sweeps).
  /// Collective: every machine's engine must call Start() concurrently.
  /// The cluster-wide continuation decision runs after each sweep, so
  /// `max_updates` budgets are not supported (pass 0); use max_sweeps to
  /// bound the run instead.
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(this->update_fn_) << "no update function";
    GL_CHECK_EQ(max_updates, uint64_t{0})
        << "chromatic engine runs to collective termination; bound the run "
           "with EngineOptions::max_sweeps";
    Timer timer;
    this->substrate_.BeginRun();
    rpc::CommStats before = ctx_.comm().GetStats(ctx_.id);
    const double busy_before = this->substrate_.busy_seconds();
    local_updates_ = 0;
    uint64_t sweeps = 0;
    const ColorId num_colors = graph_->num_colors();

    // Color-steps are natural coalescing windows: neighbors only read
    // ghost data after the full communication barrier below, so dirty
    // entities can ride one framed delta batch per peer per color-step
    // instead of one frame per scope commit.
    graph_->SetGhostSyncMode(this->options_.ghost_coalescing
                                 ? GhostSyncMode::kCoalesced
                                 : GhostSyncMode::kPerScope);

    // Schedules made before the run land before the first color-step.
    FlushGhostSignals();
    BuildColorLists();
    // Align all machines before starting.
    ctx_.barrier().WaitFlushed(ctx_.id);

    for (;;) {
      GL_TRACE_SCOPE1(trace::kEngine, "chromatic.sweep", "sweep", sweeps + 1);
      for (ColorId color = 0; color < num_colors; ++color) {
        // An aborted machine (peer death, AbortAndJoin) stops executing
        // updates but keeps walking the collective call sequence — its
        // barrier calls are failure-released or cancelled, so
        // it reaches the sweep-end decision instead of desynchronizing
        // the survivors' barrier generations.
        GL_TRACE_SCOPE1(trace::kEngine, "chromatic.color_step", "color",
                        color);
        RunColorStep(color);
        // Close the signal and coalescing windows: one forward frame and
        // one framed delta batch per peer with anything staged.
        FlushGhostSignals();
        graph_->FlushDeltas();
        // Full communication barrier between color-steps: everyone done
        // sending, and this machine has handled all it was sent.
        ctx_.barrier().WaitFlushed(ctx_.id);
        if (this->options_.sync_interval_steps != 0 && sync_ != nullptr &&
            !this->substrate_.aborted() &&
            ++steps_since_sync_ >= this->options_.sync_interval_steps) {
          steps_since_sync_ = 0;
          for (const std::string& key : this->options_.sync_keys) {
            sync_->RunSyncBlocking(key, ctx_.id);
          }
        }
      }
      ++sweeps;
      // Globally consistent boundary: all machines aligned, this
      // machine's inbound channels flushed (each machine checkpoints its
      // own partition after its own drain).  The fault subsystem's
      // checkpoint coordinator runs here.
      this->RunBoundaryHook(sweeps);
      // Cluster-wide continuation decision; a local abort propagates to
      // every machine through the high bits of the reduced word so the
      // cluster breaks out of the sweep loop together.
      uint64_t word = pending_.load(std::memory_order_acquire);
      if (this->substrate_.aborted()) word += kAbortUnit;
      std::vector<uint64_t> totals = allreduce_->Reduce(ctx_.id, {word});
      // A machine cancelled by the fault runner gets all-zeros back and
      // leaves through the T-empty branch; everyone else leaves through
      // the abort bit once their own cancellation or the collective
      // decision lands.
      if (totals[0] >= kAbortUnit) break;                  // someone aborted
      if ((totals[0] & (kAbortUnit - 1)) == 0) break;      // T empty
      if (this->options_.max_sweeps != 0 &&
          sweeps >= this->options_.max_sweeps) {
        break;
      }
    }

    // Leave the graph in immediate-flush mode between runs.
    graph_->SetGhostSyncMode(GhostSyncMode::kPerScope);

    this->last_result_ = RunResult{};
    this->last_result_.updates = CollectTotalUpdates(local_updates_);
    this->last_result_.seconds = timer.Seconds();
    this->last_result_.busy_seconds =
        this->substrate_.busy_seconds() - busy_before;
    this->last_result_.sweeps = sweeps;
    rpc::CommStats after = ctx_.comm().GetStats(ctx_.id);
    this->last_result_.bytes_sent = after.bytes_sent - before.bytes_sent;
    this->last_result_.messages_sent =
        after.messages_sent - before.messages_sent;
    this->substrate_.EndRun();
    return this->last_result_;
  }

  /// Updates executed by this machine in the last Start().
  uint64_t local_updates() const override { return local_updates_; }

  /// Per-vertex update counters (local ids) — used by the Fig. 1(b)
  /// update-distribution experiment.
  const std::vector<uint32_t>& update_counts() const override {
    return update_counts_;
  }
  void EnableUpdateCounting() override {
    update_counts_.assign(graph_->num_local_vertices(), 0);
  }

 private:
  /// Sweeps-with-abort are reduced in one word: low 48 bits carry the
  /// pending-task count, each aborted machine adds one kAbortUnit.
  static constexpr uint64_t kAbortUnit = uint64_t{1} << 48;

  /// Groups the owned vertices by color (a CSR over colors), keeping
  /// owned_vertices() order within each color so every batch is the one
  /// a filtered scan of owned_vertices() would build.
  void BuildColorLists() {
    const ColorId num_colors = graph_->num_colors();
    const auto& owned = graph_->owned_vertices();
    color_begin_.assign(num_colors + 1, 0);
    for (LocalVid l : owned) {
      if (graph_->color(l) < num_colors) ++color_begin_[graph_->color(l) + 1];
    }
    for (ColorId c = 0; c < num_colors; ++c) {
      color_begin_[c + 1] += color_begin_[c];
    }
    color_vertices_.resize(color_begin_[num_colors]);
    std::vector<size_t> next(color_begin_.begin(), color_begin_.end() - 1);
    for (LocalVid l : owned) {
      if (graph_->color(l) < num_colors) {
        color_vertices_[next[graph_->color(l)]++] = l;
      }
    }
  }

  uint64_t RunColorStep(ColorId color) {
    if (this->substrate_.aborted()) return 0;
    // Collect scheduled owned vertices of this color.
    std::vector<LocalVid> batch;
    for (size_t i = color_begin_[color]; i < color_begin_[color + 1]; ++i) {
      const LocalVid l = color_vertices_[i];
      if (scheduled_.Test(l) && scheduled_.ClearBit(l)) {
        pending_.fetch_sub(1);
        batch.push_back(l);
      }
    }
    if (batch.empty()) return 0;

    // Execute the color-step across the substrate's batch workers; ghost
    // changes stream out asynchronously as each update commits.  Busy
    // time is the chunk's thread CPU time: two clock reads per chunk,
    // not per update.
    this->substrate_.RunBatch(
        this->options_.num_threads, batch.size(),
        [&](size_t begin, size_t end) {
          const uint64_t cpu0 = Timer::ThreadCpuNanos();
          for (size_t i = begin; i < end; ++i) ExecuteUpdate(batch[i]);
          this->substrate_.AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
        });
    local_updates_ += batch.size();
    return batch.size();
  }

  void ExecuteUpdate(LocalVid l) {
    ContextType context(graph_, l, 1.0, this->options_.consistency,
                        static_cast<Base*>(this), &Base::ScheduleTrampoline);
    this->update_fn_(context);
    graph_->FlushVertexScope(l);
    if (!update_counts_.empty()) update_counts_[l]++;
    this->substrate_.CountUpdate();
  }

  /// Ships the staged ghost signals: one frame per owner machine.
  void FlushGhostSignals() {
    SignalFrames frames;
    ghost_signals_.DrainSetBits([&](size_t l) {
      frames.Add(*graph_, static_cast<LocalVid>(l), 1.0, SignalKind::kUser);
    });
    frames.Send(ctx_.comm(), ctx_.id, signal_frames_);
  }

  uint64_t CollectTotalUpdates(uint64_t local) {
    std::vector<uint64_t> totals = allreduce_->Reduce(ctx_.id, {local});
    return totals[0];
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  SyncManager<GraphType>* sync_;
  SumAllReduce* allreduce_;

  DenseBitset scheduled_;
  DenseBitset ghost_signals_;  // ghosts signalled in the current window
  // Owned vertices grouped by color: color c's are
  // color_vertices_[color_begin_[c], color_begin_[c + 1]).
  std::vector<size_t> color_begin_;
  std::vector<LocalVid> color_vertices_;
  metrics::Counter* signals_coalesced_;
  metrics::Counter* signal_frames_;
  uint64_t forward_registration_ = 0;
  std::atomic<uint64_t> pending_{0};
  uint64_t local_updates_ = 0;
  uint64_t steps_since_sync_ = 0;
  std::vector<uint32_t> update_counts_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
