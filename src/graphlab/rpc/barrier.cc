#include "graphlab/rpc/barrier.h"

#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

Barrier::Barrier(CommLayer* comm) : comm_(comm), arrivals_(kGenWindow) {
  slots_.reserve(comm->num_machines());
  for (size_t i = 0; i < comm->num_machines(); ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  for (MachineId m = 0; m < comm->num_machines(); ++m) {
    comm_->RegisterHandler(
        m, kBarrierEnter,
        [this](MachineId src, InArchive& ia) { OnEnter(src, ia); });
    comm_->RegisterHandler(
        m, kBarrierRelease,
        [this, m](MachineId src, InArchive& ia) { OnRelease(m, ia); });
  }
  // A death may complete a pending generation (the dead machine was the
  // one everyone was waiting for): re-evaluate against the shrunk
  // membership, and wake local drains so they observe the new epoch.
  // Runs on a transport thread; must not block.
  membership_token_ = comm_->membership().Subscribe(
      [this](MachineId, uint64_t) {
        {
          std::lock_guard<std::mutex> lock(master_mutex_);
          EvaluateLocked();
        }
        for (MachineId m = 0; m < comm_->num_machines(); ++m) {
          comm_->transport().WakeDispatchWaiters(m);
        }
      });
}

Barrier::~Barrier() { comm_->membership().Unsubscribe(membership_token_); }

bool Barrier::Wait(MachineId m) { return Enter(m, {}, nullptr); }

bool Barrier::WaitFlushed(MachineId m) {
  GL_CHECK_LT(m, slots_.size());
  ITransport& transport = comm_->transport();
  const Membership& members = comm_->membership();
  const uint64_t epoch = members.epoch();
  const size_t n = comm_->num_machines();
  // The snapshot precedes the enter frame, so it covers every message
  // this machine sent in the window and none of the barrier's own.
  std::vector<uint64_t> sent_row(n);
  for (MachineId p = 0; p < n; ++p) sent_row[p] = transport.DataSent(m, p);
  std::vector<uint64_t> expected;
  if (!Enter(m, std::move(sent_row), &expected)) return false;
  expected.resize(n);  // a release without counts drains nothing

  // Local drain, woken by dispatch progress (and by cancel / membership
  // changes), never by a sleep poll.
  bool drained = false;
  const bool running = transport.WaitDispatchProgress(m, [&] {
    if (Cancelled(m) || members.epoch() != epoch) return true;
    for (MachineId p = 0; p < n; ++p) {
      if (members.alive(p) && transport.DataHandled(m, p) < expected[p]) {
        return false;
      }
    }
    drained = true;
    return true;
  });
  return running && drained;
}

bool Barrier::Enter(MachineId m, std::vector<uint64_t> sent_row,
                    std::vector<uint64_t>* column) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  uint64_t my_generation;
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.cancelled) return false;
    my_generation = ++slot.entered_generation;
  }
  OutArchive oa;
  oa << my_generation << sent_row;
  comm_->Send(m, /*dst=*/0, kBarrierEnter, std::move(oa));

  std::unique_lock<std::mutex> lock(slot.mutex);
  slot.cv.wait(lock, [&] {
    return slot.released_generation >= my_generation || slot.cancelled;
  });
  if (slot.released_generation < my_generation) return false;
  // The next generation cannot release before this machine enters it,
  // so the column still belongs to my_generation.
  if (column != nullptr) *column = std::move(slot.release_counts);
  return true;
}

bool Barrier::Cancelled(MachineId m) {
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.cancelled;
}

void Barrier::Cancel(MachineId m) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.cancelled = true;
    slot.cv.notify_all();
  }
  // Outside slot.mutex: a drain predicate takes it under the transport's
  // progress lock.
  comm_->transport().WakeDispatchWaiters(m);
}

void Barrier::ClearCancel(MachineId m) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.cancelled = false;
}

uint64_t Barrier::entered_generation(MachineId m) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.entered_generation;
}

void Barrier::Realign(MachineId m, uint64_t generation) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.entered_generation = generation;
  slot.released_generation = generation;
  slot.cancelled = false;
}

void Barrier::MasterReset() {
  std::lock_guard<std::mutex> lock(master_mutex_);
  for (Generation& g : arrivals_) g = Generation{};
}

void Barrier::OnEnter(MachineId src, InArchive& payload) {
  // Runs on machine 0's dispatch thread.
  uint64_t generation = payload.ReadValue<uint64_t>();
  std::vector<uint64_t> sent_row;
  payload >> sent_row;
  const size_t n = comm_->num_machines();
  std::lock_guard<std::mutex> lock(master_mutex_);
  Generation& g = arrivals_[generation % kGenWindow];
  if (g.id != generation) g = Generation{generation, 0, {}};
  if (sent_row.size() == n) {
    if (g.sent.empty()) g.sent.assign(n * n, 0);
    for (MachineId dst = 0; dst < n; ++dst) {
      g.sent[src * n + dst] += sent_row[dst];
    }
  } else if (!sent_row.empty()) {
    GL_LOG(ERROR) << "barrier: enter from " << src << " carries "
                  << sent_row.size() << " counts for " << n << " machines";
  }
  ++g.count;
  EvaluateLocked();
}

void Barrier::EvaluateLocked() {
  const uint64_t expected = comm_->membership().num_alive();
  for (Generation& g : arrivals_) {
    // >= rather than ==: a machine may die after entering, shrinking the
    // membership below an arrival count that already includes it.
    if (g.count >= expected && g.count > 0) {
      g.count = 0;
      Broadcast(g);
      g.sent.clear();
    }
  }
}

void Barrier::Broadcast(const Generation& g) {
  const size_t n = comm_->num_machines();
  std::vector<uint64_t> column;
  for (MachineId dst = 0; dst < n; ++dst) {
    // Machine dst's column sent[*][dst]: what it must have handled.
    column.clear();
    if (!g.sent.empty()) {
      for (MachineId src = 0; src < n; ++src) {
        column.push_back(g.sent[src * n + dst]);
      }
    }
    OutArchive oa;
    oa << g.id << column;
    comm_->Send(/*src=*/0, dst, kBarrierRelease, std::move(oa));
  }
}

void Barrier::OnRelease(MachineId self, InArchive& payload) {
  uint64_t generation = payload.ReadValue<uint64_t>();
  std::vector<uint64_t> column;
  payload >> column;
  Slot& slot = *slots_[self];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.released_generation < generation) {
    slot.released_generation = generation;
    slot.release_counts = std::move(column);
    slot.cv.notify_all();
  }
}

}  // namespace rpc
}  // namespace graphlab
