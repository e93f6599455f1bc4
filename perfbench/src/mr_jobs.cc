// mr_jobs: the BOOM-MR Overlog JobTracker with 20 TaskTrackers running a fixed sequence of
// wordcount jobs back to back over seeded text; every job's output is checked against a
// count the bench computes itself.
//
// Why: aggregate-heavy JobTracker scheduling is the bulk of wall time here. The boommr
// module and incremental aggregates are reached by neither FS workload.

#include <memory>
#include <sstream>

#include "harness.h"
#include "src/base/strings.h"
#include "src/boommr/boommr.h"
#include "src/chaos/invariants.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"

namespace perfbench {
namespace {

using boom::Cluster;

constexpr int kJobs = 6;
constexpr int kTrackers = 20;
constexpr int kVocabulary = 400;
constexpr int kWordsPerSplit = 50;
// A bench step covers one TaskTracker heartbeat period (MrSetupOptions default) in
// kCallsPerStep RunUntil calls; traced runs harvest profiles after each call, which keeps
// the JobTracker well under Engine::kMaxFixpointProfiles ticks per harvest.
constexpr double kStepMs = 200;
constexpr int kCallsPerStep = 4;
constexpr double kJobTimeoutMs = 300000;

struct Job {
  boom::JobSpec spec;
  std::map<std::string, int64_t> expected;  // word -> count
};

// Seeded job shapes, input text, and per-task durations (lognormal, as in the paper's
// task-time CDFs). Durations are fixed per task, so a re-attempt takes as long.
Job MakeJob(boom::Rng& rng, int64_t job_id, const std::string& client) {
  Job job;
  boom::JobSpec& spec = job.spec;
  spec.job_id = job_id;
  spec.client = client;
  spec.num_maps = static_cast<int>(rng.UniformInt(160, 180));
  spec.num_reduces = static_cast<int>(rng.UniformInt(16, 24));
  for (int m = 0; m < spec.num_maps; ++m) {
    std::string split;
    for (int w = 0; w < kWordsPerSplit; ++w) {
      // Skewed vocabulary: low word ids are common, as in natural text.
      int64_t id = rng.UniformInt(0, rng.UniformInt(0, kVocabulary - 1));
      std::string word = "w" + std::to_string(id);
      ++job.expected[word];
      split += word + " ";
    }
    spec.map_inputs.push_back(std::move(split));
  }
  auto map_ms = std::make_shared<std::vector<double>>();
  auto reduce_ms = std::make_shared<std::vector<double>>();
  for (int m = 0; m < spec.num_maps; ++m) {
    map_ms->push_back(rng.LogNormal(60, 0.5));
  }
  for (int t = 0; t < spec.num_reduces; ++t) {
    reduce_ms->push_back(rng.LogNormal(120, 0.5));
  }
  spec.duration_ms = [map_ms, reduce_ms](const boom::TaskRef& task, const std::string&) {
    const std::vector<double>& table = task.is_map ? *map_ms : *reduce_ms;
    return table[static_cast<size_t>(task.task_id) % table.size()];
  };
  spec.map_fn = [](const std::string& input, std::vector<boom::KvPair>* out) {
    std::istringstream words(input);
    std::string word;
    while (words >> word) {
      out->emplace_back(word, "1");
    }
  };
  spec.reduce_fn = [](const std::string& key, const std::vector<std::string>& values) {
    return key + " " + std::to_string(values.size()) + "\n";
  };
  return job;
}

}  // namespace

RoundResult RunMrJobsRound(const Config& config, SpanLog* spans) {
  RoundResult r;
  const bool traced = spans != nullptr;
  double t0 = WallUs();
  Cluster cluster(config.seed, MakeClusterOptions(config));
  boom::MrSetupOptions mr;
  mr.kind = boom::MrKind::kBoomMr;
  mr.num_trackers = kTrackers;
  double i0 = WallUs();
  boom::MrHandles handles = boom::SetupMr(cluster, mr);
  double i1 = WallUs();
  cluster.RunUntil(1000);  // trackers registered by heartbeat
  double t1 = WallUs();
  boom::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<Job> jobs;
  auto log = std::make_shared<boom::MrWorkloadLog>();
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(MakeJob(rng, handles.client->NextJobId(), handles.client->address()));
    log->job_shape[jobs.back().spec.job_id] = {jobs.back().spec.num_maps,
                                               jobs.back().spec.num_reduces};
  }
  double t2 = WallUs();
  r.setup_s = (t2 - t0) / 1e6;
  if (traced) {
    uint64_t setup = spans->Add("setup", 0, t0, t2);
    uint64_t cluster_span = spans->Add("setup.cluster", setup, t0, t1);
    spans->Add("setup.install", cluster_span, i0, i1);
    spans->Add("setup.jobs", setup, t1, t2);
  }

  LayerProbe probe(cluster, {handles.jobtracker}, traced, spans);
  probe.Begin();
  std::vector<double> job_sim_ms;
  for (Job& job : jobs) {
    int64_t job_id = job.spec.job_id;
    // Shared with the completion callback, which may fire after the bench gave up.
    auto finish_ms = std::make_shared<double>(-1);
    double submit_ms = cluster.now();
    double j0 = WallUs();
    ++r.attempted;
    log->submitted.push_back(job_id);
    // Steps span one heartbeat period, so each holds exactly one round of TaskTracker
    // heartbeats (all trackers beat in phase); the job's first step also submits it.
    for (bool first = true;
         first || (*finish_ms < 0 && cluster.now() < submit_ms + kJobTimeoutMs);
         first = false) {
      uint64_t step = probe.StepBegin(first ? "submit+period" : "period");
      double call_us = 0;
      if (first) {
        double c0 = WallUs();
        handles.client->Submit(cluster, job.spec, [&probe, traced, finish_ms](double t) {
          double cb0 = traced ? WallUs() : 0;
          *finish_ms = t;
          if (traced) {
            probe.Callback(WallUs() - cb0);
          }
        });
        double c1 = WallUs();
        probe.Call(step, c0, c1);
        call_us += c1 - c0;
      }
      for (int i = 0; i < kCallsPerStep; ++i) {
        double c0 = WallUs();
        cluster.RunUntil(cluster.now() + kStepMs / kCallsPerStep);
        double c1 = WallUs();
        probe.Call(step, c0, c1);
        call_us += c1 - c0;
      }
      r.step_us.push_back(call_us);
      probe.StepEnd(step);
    }
    r.class_us["job"].push_back(WallUs() - j0);
    if (*finish_ms < 0) {
      ++r.failed;
      r.violations.push_back("job " + std::to_string(job_id) + " timed out");
      continue;
    }
    ++r.units;
    job_sim_ms.push_back(*finish_ms - submit_ms);
  }
  probe.End();
  r.layers = probe.layers();
  r.layers.build_install_ms = (i1 - i0) / 1000.0;

  // Correctness, outside the timed region: exactly-once task success, and every job's
  // output equals the bench's own word count.
  boom::BoomMrExactlyOnceChecker exactly_once(handles.data_plane, log);
  exactly_once.Check(cluster, true, &r.violations);
  std::string outputs;
  for (const Job& job : jobs) {
    std::string output = handles.data_plane->JobOutput(job.spec.job_id);
    outputs += output;
    std::map<std::string, int64_t> got;
    std::istringstream lines(output);
    std::string word;
    int64_t count = 0;
    while (lines >> word >> count) {
      got[word] += count;
    }
    if (got != job.expected) {
      r.violations.push_back("job " + std::to_string(job.spec.job_id) +
                             " output differs from the reference word count");
    }
  }

  const boom::MrMetrics& metrics = handles.data_plane->metrics();
  for (bool maps : {true, false}) {
    for (double ms : metrics.TaskCompletionTimes(maps)) {
      r.sim_ms.push_back(ms);
    }
  }
  uint64_t tasks = 0;
  for (const Job& job : jobs) {
    tasks += static_cast<uint64_t>(job.spec.num_maps + job.spec.num_reduces);
  }
  uint64_t won = 0;
  for (const boom::AttemptRecord& attempt : metrics.attempts) {
    won += attempt.won ? 1 : 0;
  }
  r.sim_extra["attempts_per_task"] =
      static_cast<double>(metrics.attempts.size()) / static_cast<double>(tasks);
  r.sim_extra["attempt_win_ratio"] =
      metrics.attempts.empty()
          ? 0
          : static_cast<double>(won) / static_cast<double>(metrics.attempts.size());
  r.sim_extra["sim_job_ms_p50"] = boom::Percentile(job_sim_ms, 50);
  r.fingerprint = TakeFingerprint(cluster, {handles.jobtracker}, boom::Fnv1a64(outputs));
  return r;
}

}  // namespace perfbench
