// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The Distributed Locking Engine (Sec. 4.2.2) — fully asynchronous,
// supports general graphs (no coloring needed) and vertex priorities.
//
// Pipelined locking and prefetching: each machine keeps a pipeline of
// scope-lock requests in flight (Alg. 4).  The local scheduler feeds the
// pipeline; scopes whose distributed locks complete move to a ready queue
// consumed by the substrate's worker loop; after executing the update the
// worker pushes ghost changes *then* releases the locks (the order the
// FIFO-channel coherence argument requires).  Termination uses the
// distributed counting consensus (rpc/termination.h) polled by the
// coordinator hook running on the substrate's calling thread.  Sync
// operations run continuously in the background.  Snapshots (sync or
// async Chandy-Lamport) are triggered mid-run by the first machine whose
// own updates estimate the cluster has done snapshot_trigger_updates
// (Sec. 4.3).
//
// Signals cost a bit, not a scope or a message:
//  * One scope request in flight per vertex, and only for a vertex with
//    work.  TryFillPipeline sets v's in_flight_ bit when it pops v and
//    requests v's scope.  It drops a pop (sched.signals_coalesced) that
//    finds v's pending bits clear or its in_flight_ bit already set.
//    No signal is lost, because a signal sets v's pending bit *before*
//    it pushes v into the scheduler.  So a pop that finds the pending
//    bits clear either follows a task that consumed them, and that task
//    ran the signal, or precedes the pending set, and the signal's own
//    push brings v back.  A pop dropped for in_flight_ follows the
//    pending set.  The task holding the bit clears in_flight_ *before*
//    it clears the pending bits, and that clear follows the dropped pop,
//    so the task still finds the pending bit set and runs the update
//    after the signal.  Without the rule a re-signalled vertex queued a
//    second scope that ran nothing once granted (locking.empty_scopes)
//    while its partial locks blocked other chains.
//  * Ghost signals made inside a task are staged, one frame per owner,
//    and shipped at the task commit, before the ghost push and the lock
//    release.  Schedules made outside a task are sent at once.
//    tasks_sent_ / tasks_received_ count entries, not frames.
//
// One engine per machine; Start() is collective and single-use:
// construct a fresh engine per run.

#ifndef GRAPHLAB_ENGINE_LOCKING_ENGINE_H_
#define GRAPHLAB_ENGINE_LOCKING_ENGINE_H_

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/locking/lock_manager.h"
#include "graphlab/engine/signal_frame.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/timer.h"

namespace graphlab {

template <typename VertexData, typename EdgeData,
          StorageLayout Layout = StorageLayout::kSoA>
class LockingEngine final
    : public EngineBase<DistributedGraph<VertexData, EdgeData, Layout>> {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData, Layout>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  LockingEngine(rpc::MachineContext ctx, GraphType* graph,
                SyncManager<GraphType>* sync, SumAllReduce* allreduce,
                SnapshotManager<VertexData, EdgeData, Layout>* snapshot,
                EngineOptions options)
      : Base(std::move(options)),
        ctx_(ctx),
        graph_(graph),
        sync_(sync),
        allreduce_(allreduce),
        snapshot_(snapshot),
        scheduler_(
            this->MakeScheduler(graph->num_local_vertices(), "priority")),
        user_pending_(graph->num_local_vertices()),
        snapshot_pending_(graph->num_local_vertices()),
        in_flight_(graph->num_local_vertices()),
        signals_coalesced_(this->metrics_->counter("sched.signals_coalesced")),
        signal_frames_(this->metrics_->counter("sched.signal_frames")),
        empty_scopes_(this->metrics_->counter("locking.empty_scopes")),
        lock_manager_(ctx, graph, this->options_.consistency) {
    if (this->options_.max_pipeline_length == 0) {
      this->options_.max_pipeline_length = 1;
    }
    // Precompile the owned-restricted local lock set of every scope this
    // machine participates in: chain hops and releases then walk flat
    // spans instead of re-deriving (and allocating) the set per request.
    // Safe here: no machine issues lock requests before the collective
    // barrier inside Start(), by which time every engine is constructed.
    lock_manager_.CompilePlans(
        [this](size_t n, const std::function<void(size_t, size_t)>& fn) {
          this->substrate_.RunBatch(this->options_.num_threads, n, fn);
        });
    forward_registration_ = ctx_.comm().RegisterHandler(
        ctx_.id, kScheduleForwardHandler,
        [this](rpc::MachineId, InArchive& ia) {
          // Deliver every entry before counting the frame received, so
          // the termination consensus never sees the tasks balance while
          // their vertices are not yet scheduled.
          const uint64_t decoded = DecodeSignalFrame(
              *graph_, ia, [this](LocalVid l, double priority,
                                  SignalKind kind) {
                if (kind == SignalKind::kSnapshot) {
                  ScheduleSnapshotLocal(l);
                } else {
                  ScheduleUserLocal(l, priority);
                }
              });
          tasks_received_.fetch_add(decoded, std::memory_order_acq_rel);
        });
    trigger_registration_ = ctx_.comm().RegisterHandler(
        ctx_.id, kSnapshotTriggerHandler,
        [this](rpc::MachineId, InArchive& ia) {
          const uint8_t mode = ia.ReadValue<uint8_t>();
          // Every machine that reaches its share of the update budget
          // broadcasts a trigger; the first one to land fires.  Triggers
          // count as tasks, and the machine is busy from here until the
          // snapshot is seeded (async) or taken (sync), so the run cannot
          // terminate around a trigger.
          if (!snapshot_fired_.exchange(true, std::memory_order_acq_rel)) {
            if (mode == 1) {
              sync_snapshot_requested_.store(true, std::memory_order_release);
            } else if (!graph_->owned_vertices().empty()) {
              // Seed the Chandy-Lamport markers: one initiator per machine
              // so disconnected partitions are covered too.
              ScheduleSnapshotLocal(graph_->owned_vertices().front());
            }
          }
          tasks_received_.fetch_add(1, std::memory_order_acq_rel);
        });
  }

  /// Late signal and trigger frames are then counted and dropped by the
  /// comm layer; lock_manager_, destroyed first among the members, does
  /// the same for lock frames.
  ~LockingEngine() override {
    ctx_.comm().UnregisterHandler(ctx_.id, kScheduleForwardHandler,
                                  forward_registration_);
    ctx_.comm().UnregisterHandler(ctx_.id, kSnapshotTriggerHandler,
                                  trigger_registration_);
  }

  const char* name() const override { return "locking"; }

  /// Schedules a local-or-ghost vertex; ghosts are forwarded at once
  /// (signals from inside a task go through the task's staged frames).
  void Schedule(LocalVid l, double priority = 1.0) override {
    if (this->substrate_.aborted()) return;
    if (graph_->is_owned(l)) {
      ScheduleUserLocal(l, priority);
    } else {
      SignalFrames frames;
      frames.Add(*graph_, l, priority, SignalKind::kUser);
      SendSignals(&frames);
    }
  }

  /// Seeds T with every owned vertex at the given priority.
  void ScheduleAll(double priority = 1.0) override {
    for (LocalVid l : graph_->owned_vertices()) {
      ScheduleUserLocal(l, priority);
    }
  }
  void ScheduleAllOwned(double priority = 1.0) { ScheduleAll(priority); }

  /// Runs the engine until global quiescence.  Collective, and single-use:
  /// construct a fresh engine per run.  `max_updates` budgets are not
  /// supported (the run ends at the distributed termination consensus);
  /// AbortAndJoin() drains the cluster early instead.
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(this->update_fn_) << "no update function";
    GL_CHECK_EQ(max_updates, uint64_t{0})
        << "locking engine runs to the distributed termination consensus";
    GL_TRACE_SCOPE(trace::kEngine, "locking.run");
    Timer timer;
    // Bracket the whole run — including the collective teardown after the
    // workers join — so AbortAndJoin() callers cannot observe Start() as
    // finished while this machine is still inside allreduce/barriers.
    this->substrate_.BeginRun();
    // Pin immediate per-scope flushing regardless of ghost_coalescing:
    // the coherence argument needs every push on the channel BEFORE the
    // lock release that follows it, so subsequent lock holders observe
    // the write (FIFO channels).  A coalescing window would break that.
    graph_->SetGhostSyncMode(GhostSyncMode::kPerScope);
    rpc::CommStats before = ctx_.comm().GetStats(ctx_.id);
    const uint64_t updates_at_start = this->substrate_.total_updates();
    const double busy_before = this->substrate_.busy_seconds();
    progress_.clear();
    if (snapshot_ != nullptr &&
        this->options_.snapshot_mode == SnapshotMode::kAsynchronous) {
      snapshot_->BeginAsyncEpoch(this->options_.snapshot_epoch);
      snapshot_fn_ = snapshot_->MakeSnapshotUpdateFn();
    }

    // Install termination state provider and open a fresh detection epoch.
    ctx_.termination().SetStateFn(ctx_.id, [this] {
      rpc::TerminationDetector::LocalState st;
      st.idle = LocallyIdle();
      st.tasks_sent = tasks_sent_.load(std::memory_order_acquire);
      st.tasks_received = tasks_received_.load(std::memory_order_acquire);
      return st;
    });
    ctx_.barrier().Wait(ctx_.id);
    if (ctx_.id == 0) ctx_.termination().NewRun();
    ctx_.barrier().Wait(ctx_.id);

    // Workers drain the granted-scope queue; the coordinator hook runs on
    // this thread until the cluster-wide termination verdict.
    ExecutionSubstrate::WorkerHooks hooks;
    hooks.exit_on_quiescence = false;
    hooks.tick = [this] {
      if (ctx_.comm().StallActive(ctx_.id)) {
        // Simulated machine fault: freeze like the comm dispatcher does.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return false;
      }
      // While paused (synchronous snapshot) the pipeline is not refilled
      // (TryFillPipeline checks), but already-granted scopes must still
      // execute so their locks release and the cluster can drain.
      TryFillPipeline();
      return true;
    };
    hooks.next_task = [this](LocalVid* v, double* priority,
                             size_t /*worker*/) {
      // The ready queue is fed by lock-grant callbacks, not per-worker —
      // the worker affinity applies one stage earlier, where
      // TryFillPipeline pops the scheduler (its two-argument GetNext
      // resolves the calling worker's published affinity).
      auto task = ready_.PopWithTimeout(std::chrono::microseconds(500));
      if (!task.has_value()) return false;
      *v = task->vid;
      *priority = task->priority;
      return true;
    };
    hooks.execute = [this](LocalVid v, double priority) {
      ExecuteTask(v, priority);
      TryFillPipeline();
    };
    this->substrate_.RunWorkers(
        this->options_.num_threads, /*max_updates=*/0, hooks, [this, &timer] {
          CoordinatorLoop(timer);
          ready_.Shutdown();  // unblock the workers' timed pops
        });

    if (snapshot_ != nullptr &&
        snapshot_fired_.load(std::memory_order_acquire) &&
        this->options_.snapshot_mode == SnapshotMode::kAsynchronous) {
      GL_CHECK_OK(snapshot_->FinishAsync());
    }

    this->last_result_ = RunResult{};
    std::vector<uint64_t> totals = allreduce_->Reduce(
        ctx_.id, {this->substrate_.total_updates() - updates_at_start});
    this->last_result_.updates = totals[0];
    this->last_result_.seconds = timer.Seconds();
    this->last_result_.busy_seconds =
        this->substrate_.busy_seconds() - busy_before;
    rpc::CommStats after = ctx_.comm().GetStats(ctx_.id);
    this->last_result_.bytes_sent = after.bytes_sent - before.bytes_sent;
    this->last_result_.messages_sent =
        after.messages_sent - before.messages_sent;
    // Let in-flight release / push messages land before anyone tears the
    // engine down, then align all machines.
    ctx_.comm().WaitQuiescent();
    ctx_.barrier().Wait(ctx_.id);
    this->substrate_.EndRun();
    return this->last_result_;
  }

  /// (elapsed seconds, cumulative local updates) samples of the last run.
  const std::vector<std::pair<double, uint64_t>>& progress() const override {
    return progress_;
  }

 private:
  struct Task {
    LocalVid vid;
    double priority;
  };

  /// The signal window of one task: its Context::Schedule calls land
  /// here, and ghost signals wait in `frames` until the task commits.
  struct TaskSignals {
    LockingEngine* engine;
    SignalFrames frames;
  };

  // ------------------------------------------------------------------
  // Scheduling
  // ------------------------------------------------------------------
  static void ScheduleFromTask(void* self, LocalVid v, double priority) {
    auto* task = static_cast<TaskSignals*>(self);
    LockingEngine* e = task->engine;
    if (e->substrate_.aborted()) return;
    if (e->graph_->is_owned(v)) {
      e->ScheduleUserLocal(v, priority);
    } else {
      task->frames.Add(*e->graph_, v, priority, SignalKind::kUser);
    }
  }

  static void ScheduleSnapshotFromTask(void* self, LocalVid v,
                                       double priority) {
    auto* task = static_cast<TaskSignals*>(self);
    LockingEngine* e = task->engine;
    if (e->graph_->is_owned(v)) {
      e->ScheduleSnapshotLocal(v);
    } else {
      task->frames.Add(*e->graph_, v, priority, SignalKind::kSnapshot);
    }
  }

  void ScheduleUserLocal(LocalVid l, double priority) {
    if (this->substrate_.aborted()) return;
    user_pending_.SetBit(l);
    scheduler_->Schedule(l, priority);
  }

  void ScheduleSnapshotLocal(LocalVid l) {
    snapshot_pending_.SetBit(l);
    scheduler_->Schedule(l, kSnapshotPriority);
  }

  /// Counts the staged entries sent *before* shipping them, so no
  /// machine can observe them received before they are counted sent.
  void SendSignals(SignalFrames* frames) {
    if (frames->entries() == 0) return;
    tasks_sent_.fetch_add(frames->entries(), std::memory_order_acq_rel);
    frames->Send(ctx_.comm(), ctx_.id, signal_frames_);
  }

  /// Abort: stop feeding the pipeline and drop queued tasks; granted
  /// scopes still execute and release, so the cluster drains and the
  /// termination consensus ends the run on every machine.
  void OnAbort() override { scheduler_->Clear(); }

  // ------------------------------------------------------------------
  // Pipeline
  // ------------------------------------------------------------------
  void TryFillPipeline() {
    if (paused_.load(std::memory_order_acquire)) return;
    for (;;) {
      size_t cur = in_pipeline_.load(std::memory_order_acquire);
      if (cur >= this->options_.max_pipeline_length) return;
      if (!in_pipeline_.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_acq_rel)) {
        continue;
      }
      LocalVid v;
      double priority;
      if (!scheduler_->GetNext(&v, &priority)) {
        in_pipeline_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
      if (!(user_pending_.Test(v) || snapshot_pending_.Test(v)) ||
          !in_flight_.SetBit(v)) {
        // A task already ran this signal, or v's in-flight task has not
        // consumed its pending bits yet and will (see the header).
        signals_coalesced_->Inc();
        in_pipeline_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      lock_manager_.RequestScope(v, [this, v, priority] {
        in_pipeline_.fetch_sub(1, std::memory_order_acq_rel);
        ready_.Push(Task{v, priority});
      });
    }
  }

  bool LocallyIdle() const {
    return scheduler_->Empty() &&
           in_pipeline_.load(std::memory_order_acquire) == 0 &&
           ready_.Size() == 0 && this->substrate_.active_workers() == 0 &&
           !paused_.load(std::memory_order_acquire) &&
           !sync_snapshot_requested_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------------
  // Execution
  // ------------------------------------------------------------------
  void ExecuteTask(LocalVid v, double priority) {
    const uint64_t cpu0 = Timer::ThreadCpuNanos();
    // Clear in_flight_ first: a signal whose pop was dropped while the
    // bit was set must still find its pending bit set below.
    in_flight_.ClearBit(v);
    const bool run_snapshot = snapshot_pending_.ClearBit(v) && snapshot_fn_;
    const bool run_user = user_pending_.ClearBit(v);
    TaskSignals signals{this, {}};
    if (run_snapshot) {
      ContextType sctx(graph_, v, kSnapshotPriority,
                       this->options_.consistency, &signals,
                       &ScheduleSnapshotFromTask);
      snapshot_fn_(sctx);
    }
    if (run_user) {
      ContextType uctx(graph_, v, priority, this->options_.consistency,
                       &signals, &ScheduleFromTask);
      this->update_fn_(uctx);
      this->substrate_.CountUpdate();
    }
    if (!run_snapshot && !run_user) empty_scopes_->Inc();
    // Commit: ghost signals, then ghost changes, then the lock release.
    // Pushing *before* releasing lets the FIFO channels guarantee every
    // subsequent lock holder observes this write.
    SendSignals(&signals.frames);
    graph_->FlushVertexScope(v);
    lock_manager_.ReleaseScope(v);
    this->substrate_.AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
  }

  // ------------------------------------------------------------------
  // Coordination: termination, syncs, snapshots, progress
  // ------------------------------------------------------------------
  void CoordinatorLoop(const Timer& timer) {
    Timer since_sync;
    double next_sample = 0.0;
    while (!ctx_.termination().Done(ctx_.id)) {
      ctx_.termination().Poll(ctx_.id);

      if (this->options_.progress_sample_ms != 0 &&
          timer.Seconds() * 1e3 >= next_sample) {
        next_sample += static_cast<double>(this->options_.progress_sample_ms);
        progress_.emplace_back(timer.Seconds(),
                               this->substrate_.total_updates());
      }

      if (sync_ != nullptr && this->options_.sync_interval_ms != 0 &&
          since_sync.Millis() >=
              static_cast<double>(this->options_.sync_interval_ms)) {
        since_sync.Start();
        for (const std::string& key : this->options_.sync_keys) {
          sync_->RunSyncAsync(key, ctx_.id);
        }
      }

      MaybeTriggerSnapshot();
      // Cleared only once the snapshot is taken: the flag keeps this
      // machine busy for the termination consensus until then.
      if (sync_snapshot_requested_.load(std::memory_order_acquire)) {
        PerformSyncSnapshot();
        sync_snapshot_requested_.store(false, std::memory_order_release);
      }

      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Broadcasts the snapshot trigger once this machine's updates, scaled
  /// by the machine count, estimate that the cluster has done
  /// snapshot_trigger_updates.  Any machine may get there first: the
  /// busiest one then fires in short runs, where waiting for one fixed
  /// machine could let the run end with no snapshot.
  void MaybeTriggerSnapshot() {
    if (trigger_sent_ || snapshot_fired_.load(std::memory_order_acquire) ||
        this->options_.snapshot_mode == SnapshotMode::kNone ||
        snapshot_ == nullptr) {
      return;
    }
    uint64_t estimate =
        this->substrate_.total_updates() * ctx_.num_machines();
    if (estimate < this->options_.snapshot_trigger_updates) return;
    trigger_sent_ = true;
    uint8_t mode =
        this->options_.snapshot_mode == SnapshotMode::kSynchronous ? 1 : 2;
    tasks_sent_.fetch_add(ctx_.num_machines(), std::memory_order_acq_rel);
    for (rpc::MachineId dst = 0; dst < ctx_.num_machines(); ++dst) {
      OutArchive oa;
      oa << mode;
      ctx_.comm().Send(ctx_.id, dst, kSnapshotTriggerHandler, std::move(oa));
    }
  }

  /// Stop-the-world snapshot: drain local work, flush channels cluster
  /// wide, journal, resume (Sec. 4.3 synchronous strategy).
  void PerformSyncSnapshot() {
    GL_TRACE_SCOPE(trace::kSnapshot, "locking.sync_snapshot");
    paused_.store(true, std::memory_order_release);
    while (!(in_pipeline_.load(std::memory_order_acquire) == 0 &&
             ready_.Size() == 0 &&
             this->substrate_.active_workers() == 0)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ctx_.barrier().Wait(ctx_.id);
    ctx_.comm().WaitQuiescent();
    ctx_.barrier().Wait(ctx_.id);
    GL_CHECK_OK(snapshot_->WriteSyncSnapshot(this->options_.snapshot_epoch));
    ctx_.barrier().Wait(ctx_.id);
    paused_.store(false, std::memory_order_release);
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  SyncManager<GraphType>* sync_;
  SumAllReduce* allreduce_;
  SnapshotManager<VertexData, EdgeData, Layout>* snapshot_;

  std::unique_ptr<IScheduler> scheduler_;
  DenseBitset user_pending_;
  DenseBitset snapshot_pending_;
  DenseBitset in_flight_;  // a scope request for v is in the pipeline
  metrics::Counter* signals_coalesced_;
  metrics::Counter* signal_frames_;
  metrics::Counter* empty_scopes_;
  UpdateFn<GraphType> snapshot_fn_;

  BlockingQueue<Task> ready_;
  std::atomic<size_t> in_pipeline_{0};
  std::atomic<uint64_t> tasks_sent_{0};
  std::atomic<uint64_t> tasks_received_{0};
  std::atomic<bool> paused_{false};
  std::atomic<bool> sync_snapshot_requested_{false};
  std::atomic<bool> snapshot_fired_{false};  // a trigger landed here
  bool trigger_sent_ = false;                // coordinator thread only

  std::vector<std::pair<double, uint64_t>> progress_;
  uint64_t forward_registration_ = 0;
  uint64_t trigger_registration_ = 0;

  // Declared last, so destroyed first: its grant callbacks run this
  // engine's code, so its handlers must be gone before any other member.
  DistributedLockManager<VertexData, EdgeData, Layout> lock_manager_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_LOCKING_ENGINE_H_
