#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/base/strings.h"
#include "src/overlog/engine.h"

namespace perfbench {

double WallUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin)
      .count();
}

boom::ClusterOptions MakeClusterOptions(const Config& config) {
  boom::ClusterOptions options;
  options.worker_threads = config.threads;
  options.enable_engine_optimizer = config.optimizer;
  return options;
}

uint64_t SpanLog::Add(std::string name, uint64_t parent, double start_us, double end_us) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start_us = start_us;
  span.end_us = end_us;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Layers::Add(const Layers& o) {
  build_install_ms += o.build_install_ms;
  measured_us += o.measured_us;
  call_us += o.call_us;
  workload_us += o.workload_us;
  workload_in_call_us += o.workload_in_call_us;
  callback_us += o.callback_us;
  harvest_us += o.harvest_us;
  tick_us += o.tick_us;
  rule_us += o.rule_us;
  for (const auto& [module, us] : o.module_rule_us) {
    module_rule_us[module] += us;
  }
  ticks += o.ticks;
  profiled_ticks += o.profiled_ticks;
  rounds += o.rounds;
  derivations += o.derivations;
  replans += o.replans;
  messages += o.messages;
  index_rebuilds += o.index_rebuilds;
  probes += o.probes;
  probe_hits += o.probe_hits;
}

namespace {

// Module (layer) that owns an Overlog program, by program name.
std::string ModuleOfProgram(const std::string& program) {
  if (program == "paxos") {
    return "paxos";
  }
  if (program == "boommr_jt") {
    return "boommr";
  }
  if (program == "boomfs_nn" || program == "boomfs_gw" || program == "nn_federation" ||
      program == "partition_map" || program.rfind("ha_bridge", 0) == 0) {
    return "boomfs";
  }
  return "other";
}

}  // namespace

LayerProbe::LayerProbe(boom::Cluster& cluster, std::vector<std::string> engines, bool traced,
                       SpanLog* spans)
    : cluster_(cluster), engines_(std::move(engines)), traced_(traced), spans_(spans) {}

LayerProbe::Counters LayerProbe::Read() const {
  Counters c;
  c.messages = cluster_.net_stats().messages;
  for (const std::string& address : engines_) {
    const boom::Engine* engine = cluster_.engine(address);
    c.ticks += engine->stats().ticks;
    c.derivations += engine->stats().derivations;
    c.replans += engine->stats().replans;
    for (const std::string& name : engine->catalog().TableNames()) {
      const boom::Table* table = engine->catalog().Find(name);
      c.index_rebuilds += table->index_rebuilds();
      c.probes += table->probes();
      c.probe_hits += table->probe_hits();
    }
  }
  return c;
}

void LayerProbe::Begin() {
  if (traced_) {
    for (const std::string& address : engines_) {
      boom::Engine* engine = cluster_.engine(address);
      engine->EnableProfiling(true);
      engine->ResetProfile();
    }
  }
  begin_ = Read();
  begin_us_ = WallUs();
}

void LayerProbe::End() {
  layers_.measured_us = WallUs() - begin_us_;
  Counters end = Read();
  layers_.ticks = end.ticks - begin_.ticks;
  layers_.derivations = end.derivations - begin_.derivations;
  layers_.replans = end.replans - begin_.replans;
  layers_.messages = end.messages - begin_.messages;
  layers_.index_rebuilds = end.index_rebuilds - begin_.index_rebuilds;
  layers_.probes = end.probes - begin_.probes;
  layers_.probe_hits = end.probe_hits - begin_.probe_hits;
  if (traced_) {
    for (const std::string& address : engines_) {
      cluster_.engine(address)->EnableProfiling(false);
    }
  }
}

uint64_t LayerProbe::StepBegin(const char* name) {
  if (!traced_) {
    return 0;
  }
  double now = WallUs();
  return spans_->Add(name, 0, now, now);
}

void LayerProbe::Call(uint64_t step, double start_us, double end_us) {
  layers_.call_us += end_us - start_us;
  if (traced_) {
    spans_->Add("call", step, start_us, end_us);
    Harvest(step);
  }
}

void LayerProbe::StepEnd(uint64_t step) {
  if (traced_) {
    spans_->SetEnd(step, WallUs());
  }
}

void LayerProbe::Harvest(uint64_t parent) {
  double start = WallUs();
  for (const std::string& address : engines_) {
    boom::Engine* engine = cluster_.engine(address);
    double tick_us = 0;
    for (const boom::Engine::FixpointProfile& fp : engine->fixpoint_profiles()) {
      tick_us += fp.wall_us;
      layers_.rounds += fp.rounds;
    }
    // Profiles beyond kMaxFixpointProfiles are dropped oldest-first, so a shortfall of
    // profiled_ticks against the tick counter over the phase means a harvest lost some.
    layers_.profiled_ticks += engine->fixpoint_profiles().size();
    for (const auto& [key, profile] : engine->rule_profiles()) {
      layers_.rule_us += profile.wall_us;
      layers_.module_rule_us[ModuleOfProgram(profile.program)] += profile.wall_us;
    }
    layers_.tick_us += tick_us;
    if (tick_us > 0) {
      // Per-engine tick total of this step: an aggregate, laid out from the step's start.
      double step_start = spans_->spans()[parent - 1].start_us;
      spans_->Add("ticks:" + address, parent, step_start, step_start + tick_us);
    }
    engine->ResetProfile();
  }
  double end = WallUs();
  layers_.harvest_us += end - start;
  spans_->Add("harvest", parent, start, end);
}

std::string Fingerprint::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "msgs=%llu derivs=%llu state=%016llx",
                static_cast<unsigned long long>(messages),
                static_cast<unsigned long long>(derivations),
                static_cast<unsigned long long>(state_hash));
  return buf;
}

Fingerprint TakeFingerprint(boom::Cluster& cluster, const std::vector<std::string>& engines,
                            uint64_t extra_hash) {
  Fingerprint fp;
  fp.messages = cluster.net_stats().messages;
  uint64_t h = extra_hash;
  std::vector<std::string> sorted = engines;
  std::sort(sorted.begin(), sorted.end());
  for (const std::string& address : sorted) {
    const boom::Engine* engine = cluster.engine(address);
    fp.derivations += engine->stats().derivations;
    std::vector<std::string> names = engine->catalog().TableNames();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      std::vector<std::string> rows;
      engine->catalog().Find(name)->ForEach(
          [&rows](const boom::Tuple& row) { rows.push_back(row.ToString()); });
      std::sort(rows.begin(), rows.end());
      std::string text = address + "/" + name;
      for (const std::string& row : rows) {
        text += "\n" + row;
      }
      h = (h ^ boom::Fnv1a64(text)) * 0x100000001b3ULL;
    }
  }
  fp.state_hash = h;
  return fp;
}

}  // namespace perfbench
