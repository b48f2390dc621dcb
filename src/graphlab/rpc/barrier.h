// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// A cluster-wide barrier implemented purely with RPC messages (no shared
// state between machines beyond per-machine slots inside this object).
//
// Protocol: every machine sends BARRIER_ENTER(generation) to machine 0;
// machine 0's handler counts entries and, when all LIVE machines of a
// generation have arrived, broadcasts BARRIER_RELEASE(generation).  Each
// machine's release handler wakes its waiting thread.
//
// WaitFlushed is the counting (flushing) variant: the enter frame also
// carries the machine's cumulative data-message counts to every peer,
// the master assembles them into a sent matrix sent[src][dst], and each
// release frame carries the receiver's column sent[*][m].  Machine m
// then drains locally until it has handled at least sent[p][m] messages
// from every live peer p.  Per-(src, dst) FIFO makes ">=" exact, so one
// barrier round closes a communication window that would otherwise take
// barrier + quiescence + barrier.
//
// Failure semantics: the master counts arrivals against the fabric's
// current Membership, and re-evaluates every pending generation when a
// machine dies — so survivors blocked on a dead machine's entry are
// released (with degraded collective semantics; the engines abort and the
// fault runner re-synchronizes) instead of hanging forever.  Cancel(m)
// wakes machine m's own waiter locally and makes its Wait() calls return
// false until ClearCancel(m); the fault runner uses this to yank a
// machine out of a run the moment it observes a peer death.

#ifndef GRAPHLAB_RPC_BARRIER_H_
#define GRAPHLAB_RPC_BARRIER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graphlab/rpc/comm_layer.h"

namespace graphlab {
namespace rpc {

/// RPC-based sense-reversing barrier.  One instance serves the whole
/// cluster; each machine interacts only with its own slot.
class Barrier {
 public:
  explicit Barrier(CommLayer* comm);
  ~Barrier();

  /// Blocks the calling (machine `m`) thread until all live machines have
  /// entered the barrier for the same generation.  Returns true on a
  /// normal release; false when the wait ended because machine m was
  /// cancelled (peer death observed locally).
  bool Wait(MachineId m);

  /// Wait(m), then blocks until machine m has handled every data message
  /// any live machine sent it before that machine entered this barrier.
  /// One barrier round, no quiescence probes.
  ///
  /// Precondition: the window's in-flight traffic has handlers that send
  /// nothing (ghost delta frames, signal frames), and each machine's
  /// sends of the window happen-before its own entry.  A handler that
  /// forwards (lock chains, snapshot markers) would put new messages on
  /// the wire that no entry counted; such windows need
  /// barrier + CommLayer::WaitQuiescent + barrier instead.
  ///
  /// Returns true once drained; false when machine m is cancelled, the
  /// membership changes after entry (peer death), or the transport
  /// stops.  Dead peers' counts are skipped.
  bool WaitFlushed(MachineId m);

  /// Wakes machine m's waiter (if blocked) and short-circuits its
  /// subsequent Wait() calls to return false immediately — the local
  /// "stop participating, a peer is dead" switch.  Note the entry message
  /// may already be counted at the master; the recovery rendezvous
  /// realigns generations before the next run.
  void Cancel(MachineId m);
  void ClearCancel(MachineId m);

  // ------------------------------------------------------------------
  // Recovery realignment (driven by fault/recovery.h)
  // ------------------------------------------------------------------
  //
  // Machines abort a failed run through different code paths, so their
  // generation counters diverge (a cancelled Wait may or may not have
  // sent its entry).  The rendezvous collects every survivor's
  // entered_generation, the coordinator resets the master ring — on its
  // dispatch thread, after all survivors' stale entries have been
  // FIFO-delivered and before any survivor can send a realigned one —
  // and every survivor jumps to the collected maximum.

  uint64_t entered_generation(MachineId m);
  /// Sets machine m's entered and released generation to `generation`
  /// and clears its cancel flag.  Only call while m runs no barrier.
  void Realign(MachineId m, uint64_t generation);
  /// Master side: forget all pending arrivals (machine 0's instance).
  void MasterReset();

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t entered_generation = 0;
    uint64_t released_generation = 0;
    bool cancelled = false;
    // Column sent[*][m] of the last release (empty for plain Wait).
    std::vector<uint64_t> release_counts;
  };
  struct Generation {
    uint64_t id = 0;     // which generation this ring slot currently holds
    uint64_t count = 0;  // arrivals for it (0 after release)
    // sent[src * n + dst] from the arrivals' enter frames; empty while
    // no arrival carried counts.
    std::vector<uint64_t> sent;
  };

  /// Enters the barrier with this machine's sent row (empty for a plain
  /// barrier) and waits for the release; on success `*column` (if given)
  /// receives the release's column.
  bool Enter(MachineId m, std::vector<uint64_t> sent_row,
             std::vector<uint64_t>* column);
  bool Cancelled(MachineId m);
  void OnEnter(MachineId src, InArchive& payload);
  void OnRelease(MachineId self, InArchive& payload);
  /// Master: release every pending generation satisfied under the current
  /// membership.  Caller holds master_mutex_.
  void EvaluateLocked();
  void Broadcast(const Generation& g);

  CommLayer* comm_;
  std::vector<std::unique_ptr<Slot>> slots_;
  size_t membership_token_ = 0;

  // Master (machine 0) bookkeeping: arrivals per generation (ring).
  std::mutex master_mutex_;
  std::vector<Generation> arrivals_;
  static constexpr size_t kGenWindow = 64;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_BARRIER_H_
