// Shared machinery of the end-to-end benchmark: run configuration, wall-clock helpers, the
// bench's own span log, per-layer accounting read from the modules' public counters and
// profiles, and the determinism fingerprint. See ../README.md for what each number means.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/cluster.h"

namespace perfbench {

// Steady-clock wall time in microseconds since an arbitrary process-local origin.
double WallUs();

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Unscored diagnostic switches; scored runs always use the defaults.
  bool optimizer = false;  // ClusterOptions::enable_engine_optimizer
  size_t threads = 1;      // ClusterOptions::worker_threads
};

boom::ClusterOptions MakeClusterOptions(const Config& config);

// The bench's own spans (name, start, end, parent), kept in memory and written out at exit.
// Recorded only in traced rounds. Ids start at 1; parent 0 is the root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

class SpanLog {
 public:
  uint64_t Add(std::string name, uint64_t parent, double start_us, double end_us);
  void SetEnd(uint64_t id, double end_us) { spans_[id - 1].end_us = end_us; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Where one round's measured-phase wall time went, attributed to the modules under src/.
// Times are microseconds summed over the round.
struct Layers {
  double build_install_ms = 0;  // program builders + Engine::Install on fresh engines
  double measured_us = 0;       // wall time of the whole measured phase
  double call_us = 0;           // bench-timed calls into the system (RunUntil, op + await)
  double workload_us = 0;       // arrival generation and op choice, inside or outside calls
  double workload_in_call_us = 0;
  double callback_us = 0;       // bench completion handlers running inside calls
  double harvest_us = 0;        // reading and resetting engine profiles (trace cost)
  double tick_us = 0;           // sum of Engine fixpoint profile wall times
  double rule_us = 0;           // sum of Engine rule profile wall times
  std::map<std::string, double> module_rule_us;  // "boomfs", "paxos", "boommr", "other"
  uint64_t ticks = 0;
  uint64_t profiled_ticks = 0;  // fixpoint profiles harvested; == ticks unless some were lost
  uint64_t rounds = 0;          // semi-naive rounds across profiled ticks
  uint64_t derivations = 0;
  uint64_t replans = 0;
  uint64_t messages = 0;
  uint64_t index_rebuilds = 0;
  uint64_t probes = 0;
  uint64_t probe_hits = 0;

  void Add(const Layers& other);
};

// Brackets a round's measured phase. Counters (engine stats, table index counters, network
// messages) are read in every round; in traced rounds the probe also turns on per-rule
// profiling on every engine and harvests the profiles after each call, so that no
// engine runs more than Engine::kMaxFixpointProfiles ticks between two harvests.
class LayerProbe {
 public:
  LayerProbe(boom::Cluster& cluster, std::vector<std::string> engines, bool traced,
             SpanLog* spans);

  void Begin();
  void End();

  // One bench step (one op, heartbeat period, or slice). StepBegin returns the step's span
  // id (0 when untraced); Call records a timed call into the system and, when traced,
  // harvests the profiles right after it; StepEnd closes the step's span.
  uint64_t StepBegin(const char* name);
  void Call(uint64_t step, double start_us, double end_us);
  void Workload(double us, bool in_call) {
    layers_.workload_us += us;
    if (in_call) {
      layers_.workload_in_call_us += us;
    }
  }
  void Callback(double us) { layers_.callback_us += us; }
  void StepEnd(uint64_t step);

  Layers& layers() { return layers_; }

 private:
  struct Counters {
    uint64_t ticks = 0, derivations = 0, replans = 0, messages = 0;
    uint64_t index_rebuilds = 0, probes = 0, probe_hits = 0;
  };
  Counters Read() const;
  void Harvest(uint64_t parent);

  boom::Cluster& cluster_;
  std::vector<std::string> engines_;
  bool traced_;
  SpanLog* spans_;
  Counters begin_;
  double begin_us_ = 0;
  Layers layers_;
};

// Run-is-a-pure-function-of-seed guard: identical across every round and run of a seed.
struct Fingerprint {
  uint64_t messages = 0;
  uint64_t derivations = 0;
  uint64_t state_hash = 0;  // every table of every engine, plus workload-specific state

  bool operator==(const Fingerprint& other) const {
    return messages == other.messages && derivations == other.derivations &&
           state_hash == other.state_hash;
  }
  std::string ToString() const;
};

// Reads the fingerprint; `extra_hash` folds in state outside the engines.
Fingerprint TakeFingerprint(boom::Cluster& cluster, const std::vector<std::string>& engines,
                            uint64_t extra_hash);

// Everything one round (fresh cluster, set-up, measured phase, checks) produced.
struct RoundResult {
  double setup_s = 0;
  uint64_t units = 0;      // completed units: metadata ops, or jobs
  uint64_t attempted = 0;
  uint64_t failed = 0;     // failed, timed-out or given-up units
  std::vector<double> step_us;  // wall time of each blocking call (op, or RunUntil slice)
  std::map<std::string, std::vector<double>> class_us;  // wall per op class / per job
  std::vector<double> sim_ms;   // virtual latency per op (or per task); pure function of seed
  std::map<std::string, double> sim_extra;  // other seed-determined values
  std::vector<std::string> violations;
  Fingerprint fingerprint;
  Layers layers;
};

// One round of each workload. `spans` is non-null exactly in traced rounds.
RoundResult RunNsChurnRound(const Config& config, SpanLog* spans);
RoundResult RunFedOpenRound(const Config& config, SpanLog* spans);
RoundResult RunMrJobsRound(const Config& config, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
