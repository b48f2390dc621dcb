// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Forwarded signals: the one wire format both distributed engines use to
// ask a vertex's owner to schedule it.
//
// A signal to a ghost costs a bit, not a message.  The engines stage
// ghost signals (the chromatic engine in a per-engine bitset, the locking
// engine per task) and ship one frame per owner machine when the staging
// window closes.  A frame is a run of entries, no header:
//
//   gvid      u32   global vertex id, owned by the receiving machine
//   priority  f64   scheduling priority (the chromatic engine ignores it)
//   kind      u8    0 = user update, 1 = snapshot marker
//
// Decoding is checked: over TCP the frame comes straight off the wire.

#ifndef GRAPHLAB_ENGINE_SIGNAL_FRAME_H_
#define GRAPHLAB_ENGINE_SIGNAL_FRAME_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/graph/types.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/util/logging.h"
#include "graphlab/util/serialization.h"

namespace graphlab {

enum class SignalKind : uint8_t { kUser = 0, kSnapshot = 1 };

/// Per-destination staging of forwarded signals.  Not thread safe: one
/// instance per staging window (a locking-engine task, a chromatic
/// color-step flush).
class SignalFrames {
 public:
  /// Stages a signal to `ghost`, a vertex of `graph` another machine owns.
  template <typename Graph>
  void Add(const Graph& graph, LocalVid ghost, double priority,
           SignalKind kind) {
    const rpc::MachineId dst = graph.owner(ghost);
    if (frames_.size() <= dst) frames_.resize(dst + 1);
    frames_[dst] << graph.Gvid(ghost) << priority
                 << static_cast<uint8_t>(kind);
    ++entries_;
  }

  /// Entries staged since the last Send().
  uint64_t entries() const { return entries_; }

  /// Ships one kScheduleForwardHandler frame per destination with staged
  /// entries; counts each frame in `frames_sent`.
  void Send(rpc::CommLayer& comm, rpc::MachineId from,
            metrics::Counter* frames_sent) {
    if (entries_ == 0) return;
    for (rpc::MachineId dst = 0; dst < frames_.size(); ++dst) {
      if (frames_[dst].size() == 0) continue;
      comm.Send(from, dst, kScheduleForwardHandler, std::move(frames_[dst]));
      frames_[dst] = OutArchive();
      frames_sent->Inc();
    }
    entries_ = 0;
  }

 private:
  std::vector<OutArchive> frames_;
  uint64_t entries_ = 0;
};

/// Decodes one forwarded-signal frame on the receiving machine and calls
/// `deliver(lvid, priority, kind)` for every entry naming a vertex this
/// machine owns.  Entries for non-local or not-owned vertices, or with an
/// unknown kind, are logged and dropped; a truncated tail ends the frame.
/// Returns the number of entries decoded — dropped ones included, so the
/// locking engine's sent/received task counts still balance.
template <typename Graph, typename Deliver>
uint64_t DecodeSignalFrame(const Graph& graph, InArchive& ia,
                           Deliver&& deliver) {
  uint64_t decoded = 0;
  while (!ia.AtEnd()) {
    const VertexId gvid = ia.ReadValue<VertexId>();
    const double priority = ia.ReadValue<double>();
    const uint8_t kind = ia.ReadValue<uint8_t>();
    if (!ia.ok()) {
      GL_LOG(ERROR) << "machine " << graph.machine_id()
                    << ": truncated signal frame after " << decoded
                    << " entries";
      break;
    }
    ++decoded;
    const LocalVid l = graph.TryLvid(gvid);
    const char* bad = nullptr;
    if (l == kInvalidLocalVid) {
      bad = "non-local vertex";
    } else if (!graph.is_owned(l)) {
      bad = "not-owned vertex";
    } else if (kind > static_cast<uint8_t>(SignalKind::kSnapshot)) {
      bad = "unknown kind for vertex";
    }
    if (bad != nullptr) {
      GL_LOG(ERROR) << "machine " << graph.machine_id() << ": signal with "
                    << bad << " " << gvid << "; dropping entry";
      continue;
    }
    deliver(l, priority, static_cast<SignalKind>(kind));
  }
  return decoded;
}

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_SIGNAL_FRAME_H_
