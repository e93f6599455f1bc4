// fed_open: the federated metadata plane — 4 Paxos groups of 3 replicas, the partition-map
// service and a shared DataNode pool — under an open-loop, 8-tenant metadata stream at a
// fixed simulated offered rate below capacity, with no modeled service time. The group-0
// leader is killed once, at a fixed virtual time.
//
// Why: about 13 engines tick mostly on timers (1 ms Paxos proposer ticks), so tick
// overhead, timer handling, simulator dispatch and Paxos rules dominate, while ns_churn's
// index path does little. The kill adds the time-without-service of a failover.
//
// The op stream comes from the same arrival library FsLoadWorkload uses (ArrivalGenerator +
// DriveOpenLoop over the federated FsClients) with FsLoadWorkload's op mix. It is the
// bench's own because every op's completion must be observed: latency from the op's due
// time, the acked namespace FedNamespaceChecker checks, and the first op group 0 serves
// after the kill. FsLoadWorkload keeps those inside.

#include <memory>

#include "harness.h"
#include "src/base/strings.h"
#include "src/boomfs/federation.h"
#include "src/boomfs/protocol.h"
#include "src/chaos/invariants.h"
#include "src/sim/open_loop.h"
#include "src/workload/arrivals.h"

namespace perfbench {
namespace {

using boom::Cluster;
using boom::Value;

constexpr int kGroups = 4;
constexpr int kReplicas = 3;
constexpr int kPartitions = 8;
constexpr int kTenants = 8;
constexpr int kPreloadPerTenant = 16;
constexpr double kMeanInterarrivalMs = 10.0 / 3;  // 300 ops per simulated second
constexpr double kHorizonMs = 4000;  // arrivals span this much virtual time
constexpr double kKillAtMs = 1500;   // group-0 leader kill, from phase start
constexpr double kSliceMs = 10;     // RunUntil step of the bench loop
constexpr double kDrainMs = 10000;  // bound on waiting for the last ops
// Op mix in percent (rm takes the rest), FsLoadWorkload's.
constexpr int kCreatePct = 35;
constexpr int kExistsPct = 25;
constexpr int kLsPct = 15;
constexpr int kRenamePct = 10;

enum class Kind { kCreate, kExists, kLs, kRename, kRm };

boom::FederatedFsOptions FedOptions() {
  boom::FederatedFsOptions options;
  options.num_groups = kGroups;
  options.replicas_per_group = kReplicas;
  options.num_partitions = kPartitions;
  options.num_datanodes = 4;
  options.num_clients = kTenants;
  return options;
}

struct Tenant {
  std::string dir;
  int group = 0;
  boom::FsClient* client = nullptr;
  std::vector<std::string> idle;  // acked live files with no op in flight
  uint64_t next_name = 0;
};

// Runs the cluster in 1 ms quanta until `*pending` drops to zero (false on timeout).
bool AwaitPending(Cluster& cluster, const int* pending, double timeout_ms) {
  double deadline = cluster.now() + timeout_ms;
  while (*pending > 0 && cluster.now() < deadline) {
    cluster.RunUntil(cluster.now() + 1.0);
  }
  return *pending == 0;
}

}  // namespace

RoundResult RunFedOpenRound(const Config& config, SpanLog* spans) {
  RoundResult r;
  const bool traced = spans != nullptr;
  double t0 = WallUs();
  Cluster cluster(config.seed, MakeClusterOptions(config));
  double i0 = WallUs();
  boom::FederatedFsHandles handles = boom::SetupFederatedFs(cluster, FedOptions());
  double i1 = WallUs();
  cluster.RunUntil(1500);  // leaders elected, DataNodes registered
  double t1 = WallUs();

  auto model = std::make_shared<boom::FedModel>();
  model->num_partitions = kPartitions;
  model->pmap = handles.pmap;
  model->groups = handles.groups;

  // Tenant t's directory is the first "/t<t>_<k>" that routes to group t % kGroups, so
  // every group serves two tenants.
  std::vector<Tenant> tenants(kTenants);
  int pending = 0;
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tenant = tenants[t];
    for (int k = 0;; ++k) {
      tenant.dir = "/t" + std::to_string(t) + "_" + std::to_string(k);
      int64_t pid = boom::RoutingPid(tenant.dir, kPartitions);
      if (handles.pid_group[static_cast<size_t>(pid)] == t % kGroups) {
        tenant.group = t % kGroups;
        break;
      }
    }
    tenant.client = handles.clients[static_cast<size_t>(t)];
    ++pending;
    tenant.client->Mkdir(cluster, tenant.dir, [&, t](bool ok, const Value&) {
      --pending;
      if (!ok) {
        r.violations.push_back("setup: mkdir " + tenants[t].dir + " failed");
      }
      model->live[tenants[t].dir] = true;
    });
  }
  if (!AwaitPending(cluster, &pending, 60000)) {
    r.violations.push_back("setup: tenant mkdirs timed out");
  }
  for (int t = 0; t < kTenants; ++t) {
    for (int i = 0; i < kPreloadPerTenant; ++i) {
      std::string path = tenants[t].dir + "/f" + std::to_string(tenants[t].next_name++);
      ++pending;
      tenants[t].client->CreateFile(cluster, path, [&, t, path](bool ok, const Value&) {
        --pending;
        if (!ok) {
          r.violations.push_back("setup: create " + path + " failed");
          return;
        }
        model->live[path] = false;
        tenants[t].idle.push_back(path);
      });
    }
  }
  if (!AwaitPending(cluster, &pending, 60000)) {
    r.violations.push_back("setup: preload timed out");
  }
  double t2 = WallUs();
  r.setup_s = (t2 - t0) / 1e6;
  if (traced) {
    uint64_t setup = spans->Add("setup", 0, t0, t2);
    uint64_t cluster_span = spans->Add("setup.cluster", setup, t0, t1);
    spans->Add("setup.install", cluster_span, i0, i1);
    spans->Add("setup.preload", setup, t1, t2);
  }

  std::vector<std::string> engines = handles.AllReplicas();
  engines.push_back(handles.pmap);
  LayerProbe probe(cluster, engines, traced, spans);

  const double phase_ms = cluster.now();
  double kill_ms = -1;
  double failover_gap_ms = -1;
  uint64_t arrivals = 0;
  bool cut_off = false;  // set once the drain bound has passed; late replies are ignored

  auto on_done = [&](int t, Kind kind, const std::string& path, const std::string& arg,
                     double due_ms, bool ok, const Value& payload) {
    if (cut_off) {
      return;  // already counted as failed
    }
    double c0 = traced ? WallUs() : 0;
    --pending;
    Tenant& tenant = tenants[t];
    // No op of this workload can fail (only idle files are picked), so any failure, or an
    // exists that misses an acked file, is a defect.
    bool exists_missed = ok && kind == Kind::kExists && !payload.Truthy();
    if (!ok || exists_missed) {
      ++r.failed;
      r.violations.push_back("op on " + path + (exists_missed ? " did not find its file"
                                                              : " failed"));
    } else {
      ++r.units;
      r.sim_ms.push_back(cluster.now() - due_ms);
      if (tenant.group == 0 && kill_ms >= 0 && due_ms >= kill_ms && failover_gap_ms < 0) {
        failover_gap_ms = cluster.now() - kill_ms;
      }
      switch (kind) {
        case Kind::kCreate:
        case Kind::kExists:
          model->live[path] = false;
          tenant.idle.push_back(path);
          break;
        case Kind::kLs:
          break;
        case Kind::kRename:
          model->live.erase(path);
          model->gone.insert(path);
          model->live[arg] = false;
          tenant.idle.push_back(arg);
          break;
        case Kind::kRm:
          model->live.erase(path);
          model->gone.insert(path);
          break;
      }
    }
    if (traced) {
      probe.Callback(WallUs() - c0);
    }
  };

  auto on_arrival = [&](const boom::OpenLoopArrival& arrival) {
    double w0 = traced ? WallUs() : 0;
    int t = arrival.tenant;
    Tenant& tenant = tenants[t];
    uint64_t h = boom::Fnv1a64("fedop/" + std::to_string(arrivals++) + "/" +
                               std::to_string(arrival.key));
    int pct = static_cast<int>(h % 100);
    Kind kind = Kind::kRm;
    if (pct < kCreatePct) {
      kind = Kind::kCreate;
    } else if (pct < kCreatePct + kExistsPct) {
      kind = Kind::kExists;
    } else if (pct < kCreatePct + kExistsPct + kLsPct) {
      kind = Kind::kLs;
    } else if (pct < kCreatePct + kExistsPct + kLsPct + kRenamePct) {
      kind = Kind::kRename;
    }
    if (tenant.idle.empty() && kind != Kind::kLs) {
      kind = Kind::kCreate;
    }
    std::string path;
    std::string arg;
    if (kind == Kind::kCreate) {
      path = tenant.dir + "/f" + std::to_string(tenant.next_name++);
    } else if (kind == Kind::kLs) {
      path = tenant.dir;
    } else {
      // Only idle files are picked, so no two in-flight ops touch one path.
      size_t i = (h >> 8) % tenant.idle.size();
      path = tenant.idle[i];
      tenant.idle[i] = tenant.idle.back();
      tenant.idle.pop_back();
      if (kind == Kind::kRename) {
        arg = tenant.dir + "/f" + std::to_string(tenant.next_name++);
      }
    }
    ++r.attempted;
    ++pending;
    double due = arrival.time_ms;
    auto cb = [&on_done, t, kind, path, arg, due](bool ok, const Value& payload) {
      on_done(t, kind, path, arg, due, ok, payload);
    };
    switch (kind) {
      case Kind::kCreate:
        tenant.client->CreateFile(cluster, path, cb);
        break;
      case Kind::kExists:
        tenant.client->Exists(cluster, path, cb);
        break;
      case Kind::kLs:
        tenant.client->Ls(cluster, path, cb);
        break;
      case Kind::kRename:
        tenant.client->Rename(cluster, path, arg, cb);
        break;
      case Kind::kRm:
        tenant.client->Rm(cluster, path, cb);
        break;
    }
    if (traced) {
      probe.Workload(WallUs() - w0, true);
    }
  };

  boom::ArrivalOptions arrival_options;
  arrival_options.seed = config.seed;
  arrival_options.horizon_ms = kHorizonMs;
  arrival_options.mean_interarrival_ms = kMeanInterarrivalMs;
  arrival_options.diurnal_amplitude = 0;
  arrival_options.num_clients = 10000;
  arrival_options.zipf_s = 0.01;  // near-uniform clients, so every tenant sees steady load
  arrival_options.tenant_weights.assign(kTenants, 1.0 / kTenants);
  boom::ArrivalGenerator generator(arrival_options);

  probe.Begin();
  // Arrival times are relative to the start of the measured phase.
  boom::DriveOpenLoop(
      cluster,
      [&generator, phase_ms](boom::OpenLoopArrival* out) {
        if (!generator.Next(out)) {
          return false;
        }
        out->time_ms += phase_ms;
        return true;
      },
      on_arrival);
  cluster.ScheduleAt(phase_ms + kKillAtMs, [&] {
    kill_ms = cluster.now();
    cluster.KillNode(boom::GroupLeader(cluster, handles.groups[0]));
  });
  const double horizon = phase_ms + kHorizonMs;
  while (cluster.now() < horizon || (pending > 0 && cluster.now() < horizon + kDrainMs)) {
    uint64_t step = probe.StepBegin("slice");
    double c0 = WallUs();
    cluster.RunUntil(cluster.now() + kSliceMs);
    double c1 = WallUs();
    probe.Call(step, c0, c1);
    r.step_us.push_back(c1 - c0);
    probe.StepEnd(step);
  }
  probe.End();
  r.layers = probe.layers();
  r.layers.build_install_ms = (i1 - i0) / 1000.0;

  // Correctness, outside the timed region, after the cluster settles.
  if (pending > 0) {
    r.failed += static_cast<uint64_t>(pending);
    r.violations.push_back(std::to_string(pending) + " ops still pending after the drain");
  }
  cut_off = true;
  cluster.RunUntil(cluster.now() + 2000);
  boom::FedEpochChecker epochs(model);
  boom::FedNamespaceChecker names(model);
  epochs.Check(cluster, true, &r.violations);
  names.Check(cluster, true, &r.violations);
  if (failover_gap_ms < 0) {
    r.violations.push_back("group 0 served no op after its leader was killed");
  }
  r.sim_extra["failover_gap_ms"] = failover_gap_ms;

  std::string listing;
  for (const auto& [path, is_dir] : model->live) {
    listing += path + (is_dir ? "/\n" : "\n");
  }
  r.fingerprint = TakeFingerprint(cluster, engines, boom::Fnv1a64(listing));
  return r;
}

}  // namespace perfbench
