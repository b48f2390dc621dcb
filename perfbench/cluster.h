// Benchmark-local cluster driver: a Runtime plus the per-fabric
// collaborators the distributed engines need.
//
// Components that coordinate through their own message slots
// (SumAllReduce, SyncManager) are instantiated once per CommLayer: one
// shared instance on the simulated fabric, one per machine on a TCP
// loopback cluster, where every machine owns its fabric and the shared
// Runtime::comm() accessor is deliberately ambiguous.

#ifndef PERFBENCH_CLUSTER_H_
#define PERFBENCH_CLUSTER_H_

#include <map>
#include <memory>
#include <vector>

#include "graphlab/engine/engine_factory.h"
#include "graphlab/rpc/runtime.h"

namespace perfbench {

template <typename Graph>
class Cluster {
 public:
  explicit Cluster(const graphlab::rpc::ClusterOptions& options)
      : runtime_(options) {
    for (graphlab::rpc::MachineId m : runtime_.local_machines()) {
      graphlab::rpc::CommLayer* comm = &runtime_.comm(m);
      Fabric& fabric = fabrics_[comm];
      if (fabric.allreduce == nullptr) {
        fabric.allreduce =
            std::make_unique<graphlab::SumAllReduce>(comm, /*width=*/1);
        fabric.sync = std::make_unique<graphlab::SyncManager<Graph>>(comm);
      }
      allreduce_.push_back(fabric.allreduce.get());
      sync_.push_back(fabric.sync.get());
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  graphlab::rpc::Runtime& runtime() { return runtime_; }
  graphlab::SumAllReduce* allreduce(graphlab::rpc::MachineId m) {
    return allreduce_[m];
  }
  graphlab::SyncManager<Graph>* sync(graphlab::rpc::MachineId m) {
    return sync_[m];
  }

  /// True when this machine's fabric has seen any peer go down.  Checked
  /// right after the solve: the loopback mesh marks peers down while it
  /// tears down, which is not a failure of the run.
  bool AnyPeerDown(graphlab::rpc::MachineId m) {
    graphlab::rpc::CommLayer& comm = runtime_.comm(m);
    for (graphlab::rpc::MachineId p = 0; p < runtime_.num_machines(); ++p) {
      if (comm.IsPeerDown(p)) return true;
    }
    return false;
  }

 private:
  struct Fabric {
    std::unique_ptr<graphlab::SumAllReduce> allreduce;
    std::unique_ptr<graphlab::SyncManager<Graph>> sync;
  };

  // Declared first so the collaborators below, which hold pointers into
  // the runtime's fabrics, are destroyed before it.
  graphlab::rpc::Runtime runtime_;
  std::map<graphlab::rpc::CommLayer*, Fabric> fabrics_;
  std::vector<graphlab::SumAllReduce*> allreduce_;  // by machine
  std::vector<graphlab::SyncManager<Graph>*> sync_;  // by machine
};

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_H_
