// End-to-end BOOM benchmark.
//
//   boom_perfbench --workload ns_churn|fed_open|mr_jobs --seed N --seconds S --trace 0|1
//                  [--optimizer 0|1] [--threads N] [--spans FILE]
//
// A run does one untimed warm-up round, then repeats rounds (fresh cluster, set-up,
// measured phase, correctness checks) until `--seconds` of wall time have passed. Every round of a seed simulates exactly the same
// thing, so the simulated results and the fingerprint must match across rounds; wall
// times are aggregated over rounds. With --trace 1, rounds alternate untraced and traced:
// the traced ones give the per-layer metrics, the untraced ones the overhead baseline. The
// last stdout line is the JSON result; README.md documents every metric.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "src/sim/stats.h"

namespace perfbench {
namespace {

constexpr int kMinUntracedRounds = 3;
// The scored simulated tail is a p99, so it must rest on this many samples (ten beyond it).
constexpr size_t kMinTailSamples = 1000;
// Largest share of a traced measured phase that may be left to no layer.
constexpr double kMaxUnattributed = 0.03;

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

double Median(std::vector<double> xs) { return boom::Percentile(std::move(xs), 50); }

// A timing as the median plus the highest whole percentile with at least ten samples
// beyond it, with the sample count.
std::string TimingJson(const std::vector<double>& xs) {
  size_t n = xs.size();
  std::string out =
      "{\"n\": " + std::to_string(n) + ", \"p50\": " + Num(boom::Percentile(xs, 50));
  int tail =
      n > 0 ? std::min(99, static_cast<int>(100.0 - 1000.0 / static_cast<double>(n))) : 0;
  if (tail > 50) {
    out += ", \"p" + std::to_string(tail) + "\": " + Num(boom::Percentile(xs, tail));
  }
  return out + "}";
}

struct Host {
  std::string cpu;
  unsigned nproc = 0;
  double calibration_ms = 0;

  std::string Json() const {
    return "{\"cpu\": " + Quote(cpu) + ", \"nproc\": " + std::to_string(nproc) +
           ", \"calibration_ms\": " + Num(calibration_ms) + "}";
  }
};

// CPU model, core count, and the best-of-5 time of a fixed integer loop, so that results
// from different hosts are never compared.
Host ReadHost() {
  Host host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      host.cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  host.nproc = std::thread::hardware_concurrency();
  host.calibration_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    double start = WallUs();
    uint64_t x = 0x243F6A8885A308D3ULL;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x += static_cast<uint64_t>(i);
      asm volatile("" : "+r"(x));  // keeps every iteration
    }
    double ms = (WallUs() - start) / 1000.0;
    host.calibration_ms = std::min(host.calibration_ms, ms);
  }
  return host;
}

// Peak resident memory of this process image, VmHWM in /proc/self/status. getrusage's
// ru_maxrss is not used: it keeps the high-water mark of the image before exec, so when
// the bench is started from Python it reports the interpreter's peak whenever that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

struct Args {
  Config config;
  std::string spans_path;
  bool ok = false;
};

Args ParseOrThrow(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.config.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.config.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      args.config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--optimizer") {
      args.config.optimizer = value == "1";
    } else if (key == "--threads") {
      args.config.threads = std::max<size_t>(1, std::stoul(value));
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return args;
    }
  }
  args.ok = have_workload && have_seed && have_seconds && have_trace && argc % 2 == 1;
  return args;
}

Args Parse(int argc, char** argv) {
  Args args;
  try {
    args = ParseOrThrow(argc, argv);
  } catch (const std::exception&) {
    args.ok = false;  // a malformed number
  }
  return args;
}

void WriteSpans(const std::string& path, const Host& host, const Config& config,
                const SpanLog& spans) {
  std::ofstream out(path);
  out << "{\"host\": " << host.Json() << ", \"workload\": " << Quote(config.workload)
      << ", \"seed\": " << config.seed << "}\n";
  for (const Span& s : spans.spans()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": " << Quote(s.name) << ", \"start_us\": " << Num(s.start_us)
        << ", \"end_us\": " << Num(s.end_us) << "}\n";
  }
}

// The seed-determined part of a round; must be identical across all rounds of a run.
bool SameSimulation(const RoundResult& a, const RoundResult& b) {
  return a.fingerprint == b.fingerprint && a.sim_ms == b.sim_ms &&
         a.sim_extra == b.sim_extra && a.units == b.units && a.attempted == b.attempted &&
         a.failed == b.failed;
}

// Wall time of the measured phase that no layer claims: the bench loop's own bookkeeping
// between and around its timed calls, op choices and harvests.
double Unattributed(const Layers& l) {
  return l.measured_us - l.call_us - (l.workload_us - l.workload_in_call_us) - l.harvest_us;
}

// Checks that the traced rounds' layers account for their total: no engine lost a fixpoint
// profile, nested layer times fit inside their parents, and the unattributed rest stays
// within a few percent of the measured phase.
void CheckAttribution(const Layers& l, std::vector<std::string>* problems) {
  if (l.profiled_ticks != l.ticks) {
    problems->push_back("lost fixpoint profiles: " + std::to_string(l.ticks) + " ticks, " +
                        std::to_string(l.profiled_ticks) + " profiled");
  }
  if (l.rule_us > l.tick_us * 1.001 ||
      l.tick_us + l.workload_in_call_us + l.callback_us > l.call_us * 1.01) {
    problems->push_back("nested layer times exceed their parent call time");
  }
  double share = l.measured_us > 0 ? Unattributed(l) / l.measured_us : 1;
  if (share > kMaxUnattributed || share < -0.001) {
    problems->push_back("unattributed share of the traced total is " + Num(share));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = Parse(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: boom_perfbench --workload ns_churn|fed_open|mr_jobs --seed N "
                 "--seconds S --trace 0|1 [--optimizer 0|1] [--threads N] [--spans FILE]\n");
    return 2;
  }
  const Config& config = args.config;
  std::function<RoundResult(const Config&, SpanLog*)> round_fn;
  if (config.workload == "ns_churn") {
    round_fn = RunNsChurnRound;
  } else if (config.workload == "fed_open") {
    round_fn = RunFedOpenRound;
  } else if (config.workload == "mr_jobs") {
    round_fn = RunMrJobsRound;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  if (config.threads > std::max(1u, std::thread::hardware_concurrency())) {
    std::fprintf(stderr, "--threads may not exceed nproc\n");
    return 2;
  }

  Host host = ReadHost();
  SpanLog spans;
  // A first, untimed round fills caches and finishes lazy set-up (interning, heap growth),
  // which a long-running system pays once. It is checked like every other round.
  std::vector<RoundResult> warmup = {round_fn(config, nullptr)};
  // Read here, so that it is the memory one round of the workload needs and not the bench's
  // per-round records, which grow with the number of rounds a run fits in.
  double peak_rss_mb = PeakRssMb();
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  double start = WallUs();
  for (int round = 0;; ++round) {
    bool trace_round = config.trace && round % 2 == 1;
    RoundResult result = round_fn(config, trace_round ? &spans : nullptr);
    (trace_round ? traced : plain).push_back(std::move(result));
    bool enough = config.trace ? !traced.empty() : plain.size() >= kMinUntracedRounds;
    if (enough && (WallUs() - start) / 1e6 >= config.seconds) {
      break;
    }
  }

  std::vector<std::string> problems;
  const RoundResult& first = warmup.front();
  for (const std::vector<RoundResult>* rounds : {&warmup, &plain, &traced}) {
    for (const RoundResult& r : *rounds) {
      for (const std::string& v : r.violations) {
        problems.push_back(v);
      }
      if (!SameSimulation(first, r)) {
        problems.push_back("nondeterminism: round fingerprint " + r.fingerprint.ToString() +
                           " differs from " + first.fingerprint.ToString());
      }
    }
  }
  if (first.sim_ms.size() < kMinTailSamples) {
    problems.push_back("only " + std::to_string(first.sim_ms.size()) + " simulated samples");
  }

  // Throughput averages over all untraced rounds. Interference on a shared host comes in
  // phases of seconds, not as lone outliers: an average tracks the share of the run spent
  // in slow phases smoothly, where a median over rounds jumps between phases and spreads
  // wider from run to run. Set-up time is a median over rounds. Per-step and per-class
  // wall times go to the detail line and the traced run.
  uint64_t attempted = 0, failed = 0;
  double units = 0, measured_us = 0;
  std::vector<double> setup_s, step_us, plain_measured;
  std::map<std::string, std::vector<double>> class_us;
  for (const RoundResult& r : plain) {
    attempted += r.attempted;
    failed += r.failed;
    setup_s.push_back(r.setup_s);
    units += static_cast<double>(r.units);
    measured_us += r.layers.measured_us;
    plain_measured.push_back(r.layers.measured_us);
    step_us.insert(step_us.end(), r.step_us.begin(), r.step_us.end());
    for (const auto& [cls, xs] : r.class_us) {
      class_us[cls].insert(class_us[cls].end(), xs.begin(), xs.end());
    }
  }
  for (const RoundResult& r : traced) {
    attempted += r.attempted;
    failed += r.failed;
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", units / (measured_us / 1e6), "1/s"},
        {"sim_ms_p50", boom::Percentile(first.sim_ms, 50), "ms"},
        {"sim_ms_p99", boom::Percentile(first.sim_ms, 99), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    Layers l;
    double traced_units = 0;
    std::vector<double> traced_measured;
    for (const RoundResult& r : traced) {
      l.Add(r.layers);
      traced_units += static_cast<double>(r.units);
      traced_measured.push_back(r.layers.measured_us);
    }
    l.build_install_ms /= static_cast<double>(traced.size());
    CheckAttribution(l, &problems);
    double u = std::max(1.0, traced_units);
    double sim_other = l.call_us - l.tick_us - l.workload_in_call_us - l.callback_us;
    auto module = [&](const char* m) {
      auto it = l.module_rule_us.find(m);
      return it == l.module_rule_us.end() ? 0.0 : it->second / u;
    };
    auto class_p50 = [&](const char* cls) {
      auto it = class_us.find(cls);
      return it == class_us.end() ? 0.0 : boom::Percentile(it->second, 50);
    };
    auto extra = [&](const char* key) {
      auto it = first.sim_extra.find(key);
      return it == first.sim_extra.end() ? 0.0 : it->second;
    };
    metrics = {
        {"overlog.build_install_ms", l.build_install_ms, "ms"},
        {"overlog.ticks_per_op", static_cast<double>(l.ticks) / u, "count"},
        {"overlog.tick_us_per_op", l.tick_us / u, "us"},
        {"overlog.tick_self_us_per_op", (l.tick_us - l.rule_us) / u, "us"},
        {"overlog.rule_eval_us_per_op", l.rule_us / u, "us"},
        {"overlog.derivations_per_op", static_cast<double>(l.derivations) / u, "count"},
        {"overlog.rounds_per_tick",
         l.profiled_ticks ? static_cast<double>(l.rounds) / static_cast<double>(l.profiled_ticks)
                          : 0,
         "count"},
        {"overlog.index_rebuilds_per_op", static_cast<double>(l.index_rebuilds) / u, "count"},
        {"overlog.probes_per_op", static_cast<double>(l.probes) / u, "count"},
        {"overlog.probe_hit_ratio",
         l.probes ? static_cast<double>(l.probe_hits) / static_cast<double>(l.probes) : 0,
         "ratio"},
        {"overlog.replans", static_cast<double>(l.replans), "count"},
        {"boomfs.rule_us_per_op", module("boomfs"), "us"},
        {"paxos.rule_us_per_op", module("paxos"), "us"},
        {"boommr.rule_us_per_op", module("boommr"), "us"},
        {"sim.run_us_per_op", l.call_us / u, "us"},
        {"sim.other_us_per_op", sim_other / u, "us"},
        {"sim.msgs_per_op", static_cast<double>(l.messages) / u, "count"},
        {"workload.us_per_op", l.workload_us / u, "us"},
        {"bench.us_per_op", Unattributed(l) / u, "us"},
        {"trace.harvest_us_per_op", l.harvest_us / u, "us"},
        {"boomfs.create_wall_us_p50", class_p50("create"), "us"},
        {"boomfs.read_wall_us_p50", class_p50("read"), "us"},
        {"boomfs.mutate_wall_us_p50", class_p50("mutate"), "us"},
        {"boommr.job_wall_ms_p50", class_p50("job") / 1000.0, "ms"},
        {"boommr.attempts_per_task", extra("attempts_per_task"), "count"},
        {"boommr.attempt_win_ratio", extra("attempt_win_ratio"), "ratio"},
        {"paxos.failover_gap_ms", extra("failover_gap_ms"), "ms"},
        {"trace.overhead", Median(traced_measured) / Median(plain_measured) - 1.0, "ratio"},
        {"trace.coverage", l.measured_us > 0 ? 1 - Unattributed(l) / l.measured_us : 0,
         "ratio"},
    };
    if (!args.spans_path.empty()) {
      WriteSpans(args.spans_path, host, config, spans);
    }
  }

  // Human-readable context first; the JSON result is the last line.
  std::string detail = "{\"workload\": " + Quote(config.workload) +
                       ", \"seed\": " + std::to_string(config.seed) +
                       ", \"rounds_untraced\": " + std::to_string(plain.size()) +
                       ", \"rounds_traced\": " + std::to_string(traced.size()) +
                       ", \"fingerprint\": " + Quote(first.fingerprint.ToString()) +
                       ", \"fail_ratio\": " +
                       Num(first.attempted ? static_cast<double>(first.failed) /
                                                 static_cast<double>(first.attempted)
                                           : 0) +
                       ", \"round_measured_s\": [" + [&] {
                         std::string list;
                         for (double us : plain_measured) {
                           list += (list.empty() ? "" : ", ") + Num(us / 1e6);
                         }
                         return list;
                       }() + "]" +
                       ", \"sim_ms\": " + TimingJson(first.sim_ms) +
                       ", \"step_wall_us\": " + TimingJson(step_us);
  for (const auto& [cls, xs] : class_us) {
    detail += ", \"" + cls + "_wall_us\": " + TimingJson(xs);
  }
  for (const auto& [key, v] : first.sim_extra) {
    detail += ", \"" + key + "\": " + Num(v);
  }
  detail += "}";
  std::printf("host %s\n", host.Json().c_str());
  std::printf("detail %s\n", detail.c_str());
  for (const std::string& p : problems) {
    std::printf("problem %s\n", p.c_str());
  }

  std::string out = "{\"correct\": " + std::string(problems.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return problems.empty() ? 0 : 1;
}
