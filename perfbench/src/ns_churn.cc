// ns_churn: one Overlog NameNode (rename enabled) with its DataNodes and one closed-loop
// client. Set-up preloads a namespace; the measured phase is a seeded mix of creates,
// reads (ls/exists) and mutates (rename/rm) that holds the namespace size steady.
//
// Why: a single engine does nearly all the work. Mutates retract rows and so exercise
// table and index maintenance; creates and reads mostly bypass it. An index or planner
// change shows on the mutate class; its cost on the monotone insert path on the create
// class.

#include <memory>
#include <set>
#include <unordered_map>

#include "harness.h"
#include "src/base/strings.h"
#include "src/boomfs/boomfs.h"
#include "src/boomfs/protocol.h"
#include "src/sim/random.h"

namespace perfbench {
namespace {

using boom::Cluster;
using boom::FsClient;
using boom::Value;

constexpr int kDirs = 24;
// The namespace is sized so that the NameNode's tables and indexes fit a core's 2 MB L2
// cache. Past about 1200 files each index rebuild spills to the shared L3 and memory. On a
// shared 4-vCPU Xeon VM, cost per op grew 4.5x from 1200 to 2400 files, and at 2400 the op
// rate followed other tenants' use of the shared cache: it swung 2.4x within six minutes.
constexpr int kPreloadFiles = 600;
constexpr int kOps = 4000;
// Op mix, drawn per op: FsLoadWorkload's weights (create 35, exists 25, ls 15, rename 10,
// rm 15) with the rm weight raised to 35 so that rms balance creates and the namespace
// holds its preloaded size. Weights are out of their sum, 120.
constexpr int kCreateW = 35;
constexpr int kExistsW = 25;
constexpr int kLsW = 15;
constexpr int kRenameW = 10;
constexpr int kRmW = 35;
constexpr int kTotalW = kCreateW + kExistsW + kLsW + kRenameW + kRmW;

enum class Kind { kCreate, kLs, kExists, kRename, kRm };

const char* ClassOf(Kind kind) {
  switch (kind) {
    case Kind::kCreate:
      return "create";
    case Kind::kLs:
    case Kind::kExists:
      return "read";
    case Kind::kRename:
    case Kind::kRm:
      return "mutate";
  }
  return "";
}

std::string DirName(int d) { return "/d" + std::to_string(d); }

// The bench's own model of the namespace: what Ls on every directory must return.
class NsModel {
 public:
  void Add(const std::string& path) {
    index_[path] = files_.size();
    files_.push_back(path);
    dirs_[boom::PathDirname(path)].insert(boom::PathBasename(path));
  }
  void Remove(const std::string& path) {
    size_t i = index_.at(path);
    index_[files_.back()] = i;
    files_[i] = files_.back();
    files_.pop_back();
    index_.erase(path);
    dirs_[boom::PathDirname(path)].erase(boom::PathBasename(path));
  }
  const std::string& Pick(boom::Rng& rng) const {
    return files_[static_cast<size_t>(rng.UniformInt(0, files_.size() - 1))];
  }
  bool empty() const { return files_.empty(); }
  const std::set<std::string>& Listing(const std::string& dir) { return dirs_[dir]; }

 private:
  std::vector<std::string> files_;
  std::unordered_map<std::string, size_t> index_;
  std::map<std::string, std::set<std::string>> dirs_;
};

// Completion of one op. Held by the callback too, so a reply that lands after the bench
// gave up on the op writes to live memory.
struct Outcome {
  bool done = false;
  bool ok = false;
  Value payload;
  double done_ms = 0;
};

// One closed-loop op through the FsClient that SyncFs wraps, awaited in the same 1 ms
// RunUntil quanta as SyncFs::Await. The callback stamps the exact virtual completion time;
// SyncFs would only return at a quantum boundary.
std::shared_ptr<Outcome> RunOp(Cluster& cluster, FsClient* client, Kind kind,
                               const std::string& path, const std::string& arg) {
  auto out = std::make_shared<Outcome>();
  auto cb = [&cluster, out](bool ok, const Value& payload) {
    out->done = true;
    out->ok = ok;
    out->payload = payload;
    out->done_ms = cluster.now();
  };
  switch (kind) {
    case Kind::kCreate:
      client->CreateFile(cluster, path, cb);
      break;
    case Kind::kLs:
      client->Ls(cluster, path, cb);
      break;
    case Kind::kExists:
      client->Exists(cluster, path, cb);
      break;
    case Kind::kRename:
      client->Rename(cluster, path, arg, cb);
      break;
    case Kind::kRm:
      client->Rm(cluster, path, cb);
      break;
  }
  double deadline = cluster.now() + 60000;
  while (!out->done && cluster.now() < deadline) {
    cluster.RunUntil(cluster.now() + 1.0);
  }
  return out;
}

boom::FsSetupOptions FsOptions() {
  boom::FsSetupOptions fs;
  fs.kind = boom::FsKind::kBoomFs;
  fs.with_rename = true;
  return fs;
}

}  // namespace

RoundResult RunNsChurnRound(const Config& config, SpanLog* spans) {
  RoundResult r;
  double t0 = WallUs();
  Cluster cluster(config.seed, MakeClusterOptions(config));
  double i0 = WallUs();
  boom::FsHandles handles = boom::SetupFs(cluster, FsOptions());
  double i1 = WallUs();
  boom::SyncFs fs(cluster, handles.client);
  cluster.RunUntil(1200);  // DataNodes register; safe mode exits
  double t1 = WallUs();

  boom::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 1);
  NsModel model;
  uint64_t next_name = 0;
  auto fresh_path = [&](int dir) {
    return DirName(dir) + "/f" + std::to_string(next_name++);
  };
  for (int d = 0; d < kDirs; ++d) {
    if (!fs.Mkdir(DirName(d))) {
      r.violations.push_back("preload: mkdir " + DirName(d) + " failed");
    }
  }
  for (int i = 0; i < kPreloadFiles; ++i) {
    std::string path = fresh_path(static_cast<int>(rng.UniformInt(0, kDirs - 1)));
    if (!fs.CreateFile(path)) {
      r.violations.push_back("preload: create " + path + " failed");
      continue;
    }
    model.Add(path);
  }
  double t2 = WallUs();
  r.setup_s = (t2 - t0) / 1e6;
  if (spans != nullptr) {
    uint64_t setup = spans->Add("setup", 0, t0, t2);
    uint64_t cluster_span = spans->Add("setup.cluster", setup, t0, t1);
    spans->Add("setup.install", cluster_span, i0, i1);
    spans->Add("setup.preload", setup, t1, t2);
  }

  LayerProbe probe(cluster, {handles.namenode}, spans != nullptr, spans);
  probe.Begin();
  for (int i = 0; i < kOps; ++i) {
    double s0 = WallUs();
    int w = static_cast<int>(rng.UniformInt(0, kTotalW - 1));
    Kind kind = Kind::kRm;
    if (w < kCreateW) {
      kind = Kind::kCreate;
    } else if (w < kCreateW + kExistsW) {
      kind = Kind::kExists;
    } else if (w < kCreateW + kExistsW + kLsW) {
      kind = Kind::kLs;
    } else if (w < kCreateW + kExistsW + kLsW + kRenameW) {
      kind = Kind::kRename;
    }
    if (model.empty() && kind != Kind::kLs) {
      kind = Kind::kCreate;
    }
    std::string path;
    std::string arg;
    switch (kind) {
      case Kind::kCreate:
        path = fresh_path(static_cast<int>(rng.UniformInt(0, kDirs - 1)));
        break;
      case Kind::kLs:
        path = DirName(static_cast<int>(rng.UniformInt(0, kDirs - 1)));
        break;
      case Kind::kExists:
      case Kind::kRm:
        path = model.Pick(rng);
        break;
      case Kind::kRename:
        path = model.Pick(rng);
        arg = fresh_path(static_cast<int>(rng.UniformInt(0, kDirs - 1)));
        break;
    }
    const char* cls = ClassOf(kind);
    uint64_t step = probe.StepBegin(cls);
    double c0 = WallUs();
    probe.Workload(c0 - s0, false);

    double v0 = cluster.now();
    std::shared_ptr<Outcome> out = RunOp(cluster, handles.client, kind, path, arg);
    double c1 = WallUs();
    probe.Call(step, c0, c1);

    ++r.attempted;
    r.step_us.push_back(c1 - c0);
    r.class_us[cls].push_back(c1 - c0);
    // No op of this workload can fail, so any failure is a defect.
    bool ok = out->done && out->ok && (kind != Kind::kExists || out->payload.Truthy());
    if (!ok) {
      ++r.failed;
      const char* why = !out->done ? " timed out" : !out->ok ? " failed" : " missed its file";
      r.violations.push_back(std::string(cls) + " op on " + path + why);
    } else {
      ++r.units;
      r.sim_ms.push_back(out->done_ms - v0);
      if (kind == Kind::kCreate) {
        model.Add(path);
      } else if (kind == Kind::kRename) {
        model.Remove(path);
        model.Add(arg);
      } else if (kind == Kind::kRm) {
        model.Remove(path);
      }
    }
    probe.StepEnd(step);
  }
  probe.End();
  r.layers = probe.layers();
  r.layers.build_install_ms = (i1 - i0) / 1000.0;

  // Correctness, outside the timed region: every directory lists exactly the model.
  std::string listing;
  for (int d = 0; d < kDirs; ++d) {
    std::vector<std::string> names;
    if (!fs.Ls(DirName(d), &names)) {
      r.violations.push_back("final ls " + DirName(d) + " failed");
      continue;
    }
    std::set<std::string> got(names.begin(), names.end());
    if (got != model.Listing(DirName(d)) || got.size() != names.size()) {
      r.violations.push_back("final ls " + DirName(d) + ": " + std::to_string(names.size()) +
                             " entries, model has " +
                             std::to_string(model.Listing(DirName(d)).size()));
    }
    for (const std::string& name : got) {
      listing += DirName(d) + "/" + name + "\n";
    }
  }
  r.fingerprint = TakeFingerprint(cluster, {handles.namenode}, boom::Fnv1a64(listing));
  return r;
}

}  // namespace perfbench
