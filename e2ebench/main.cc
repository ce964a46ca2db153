// wafe_e2ebench: the end-to-end benchmark driver.
//
//   wafe_e2ebench --workload <roundtrip|storm|redraw|build> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Untraced (--trace 0), it reports the end-to-end metrics; traced
// (--trace 1), the per-layer metrics and, with --trace-out, a Chrome trace
// of the benchmark's spans. The last line of stdout is one JSON object; the
// lines before it give the same metrics in text. The exit status is 0 only
// when every output check passed. README.md in this directory describes the
// workloads and metrics.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/harness.h"
#include "src/obs/obs.h"

namespace {

using wobs::NowNs;

// Fresh instances built at the start of each slice of the untraced run;
// setup_s is their median over the slices the metrics use.
constexpr int kSetupsPerBlock = 2;

// A timed phase is cut into slices of this much wall time, and the metrics
// pool the raw samples of the steadiest slices (see SteadySlices).
constexpr double kBlockSeconds = 0.25;
constexpr std::size_t kBlockShare = 10;  // use at least 1 in this many slices
// ... and enough slices for this many samples, so p99 has 20 beyond it.
constexpr std::size_t kMinPooledSamples = 2000;
// How often, between ops, the speed probe runs.
constexpr std::uint64_t kProbeEveryNs = 1'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0;
}

// --- Watchdog -----------------------------------------------------------------------
//
// A hung op (a backend that never answers) must not hang the run: SIGALRM
// kills the forked backend and exits non-zero without printing a result.

std::atomic<int> g_child_pid{-1};

void OnAlarm(int) {
  const int pid = g_child_pid.load();
  if (pid > 0) {
    ::kill(pid, SIGKILL);
  }
  const char message[] = "e2ebench: run exceeded its time limit\n";
  ssize_t ignored = ::write(2, message, sizeof(message) - 1);
  (void)ignored;
  ::_exit(3);
}

// --- Speed probe -------------------------------------------------------------------
//
// On a shared machine, other tenants slow the CPU by up to 1.6x for
// stretches of a fraction of a second to several seconds, and a run may
// spend most of its time slowed. So about every kProbeEveryNs, between two
// ops, the benchmark times a fixed probe that is not the program's code:
// it formats 60 short strings and inserts them into a std::map, all inside
// a fixed arena, so the probe's work does not depend on the program's heap.
// One probe is noisy, but the median probe of a 0.25 s slice follows the
// slice's op latency closely. The metrics pool every op of the slices with
// the fastest median probe. The choice never looks at the ops, so a
// slowdown of the program, a rare stall included, cannot remove itself
// from the sample.

volatile std::uint64_t g_probe_sink = 0;

// Nanoseconds the probe took (about 15 us on an idle core).
std::uint64_t TimeSpeedProbe() {
  alignas(16) static char arena[64 * 1024];
  const std::uint64_t start = NowNs();
  std::pmr::monotonic_buffer_resource pool(arena, sizeof(arena),
                                           std::pmr::null_memory_resource());
  std::pmr::map<std::pmr::string, int> map(&pool);
  char key[64];
  for (int i = 0; i < 60; ++i) {
    const int n =
        std::snprintf(key, sizeof(key), "sV rx%d label {rx: %d pkts/s}", i * 7919 % 1000, i);
    map[std::pmr::string(key, static_cast<std::size_t>(n), &pool)] += i;
  }
  std::uint64_t sum = 0;
  for (const auto& [text, value] : map) {
    sum += static_cast<std::uint64_t>(value) + static_cast<unsigned char>(text[3]);
  }
  g_probe_sink = sum;
  return NowNs() - start;
}

void PinTo(int pid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(pid, sizeof(set), &set);
}

// The CPUs this process may run on, read at the first call, before any
// pinning.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> list;
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          list.push_back(cpu);
        }
      }
    }
    return list;
  }();
  return cpus;
}

// Moves this process to the allowed CPU where the speed probe runs
// fastest, and a forked backend (`child` > 0) to the second fastest, so the
// two never share one. Called at the start of every slice: which CPUs the
// other tenants slow changes within seconds.
void MoveToFastestCpus(int child) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) {
    return;
  }
  std::vector<std::pair<std::uint64_t, int>> ranked;
  for (int cpu : cpus) {
    PinTo(0, cpu);
    std::uint64_t ns = UINT64_MAX;
    for (int probe = 0; probe < 3; ++probe) {
      ns = std::min(ns, TimeSpeedProbe());
    }
    ranked.emplace_back(ns, cpu);
  }
  std::sort(ranked.begin(), ranked.end());
  PinTo(0, ranked[0].second);
  if (child > 0) {
    PinTo(child, ranked[1].second);
  }
}

// --- Timed phases --------------------------------------------------------------------

std::uint64_t CpuNs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

struct Block {
  std::vector<std::uint64_t> samples;  // per-op latency, ns
  std::uint64_t busy_ns = 0;           // wall time of the ops, Prepare and Verify included
  std::uint64_t cpu_ns = 0;            // frontend CPU inside the ops
  std::vector<std::uint64_t> setups;   // set-up times, ns
  std::vector<std::uint64_t> probes;   // speed probe times, ns
};

struct Phase {
  std::vector<Block> blocks;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

// Closed loop: one op after another until `seconds` have passed. An op's
// latency and CPU time cover Run() alone, so the simulated user's own
// bookkeeping (Prepare, Verify) is excluded there; it counts in the wall
// time ops_per_s divides by. With a `fresh` workload, each slice starts by
// building (and tearing down) instances of it, timed as set-ups.
Phase RunPhase(e2e::Workload& workload, e2e::Tracer* tracer, double seconds,
               const char* name, e2e::Workload* fresh = nullptr) {
  Phase phase;
  const std::uint64_t begin = NowNs();
  const int blocks = std::max(4, static_cast<int>(seconds / kBlockSeconds + 0.5));
  const double block_ns = seconds * 1e9 / blocks;
  for (int b = 0; b < blocks; ++b) {
    Block& block = phase.blocks.emplace_back();
    MoveToFastestCpus(workload.child_pid());
    const std::uint64_t deadline = begin + static_cast<std::uint64_t>(block_ns * (b + 1));
    for (int i = 0; fresh != nullptr && i < kSetupsPerBlock; ++i) {
      const std::uint64_t start = NowNs();
      fresh->SetUp();
      block.setups.push_back(NowNs() - start);
      fresh->TearDown();
    }
    std::uint64_t next_probe = 0;
    std::uint64_t now = NowNs();
    do {
      if (now >= next_probe) {
        block.probes.push_back(TimeSpeedProbe());
        next_probe = NowNs() + kProbeEveryNs;
      }
      const std::uint64_t op_begin = NowNs();
      workload.Prepare();
      const std::uint64_t cpu_start = CpuNs();
      if (tracer != nullptr) {
        tracer->BeginOp();
      }
      const std::uint64_t start = NowNs();
      workload.Run(tracer);
      const std::uint64_t dur = NowNs() - start;
      if (tracer != nullptr) {
        tracer->EndOp(name);
      }
      block.cpu_ns += CpuNs() - cpu_start;
      block.samples.push_back(dur);
      ++phase.ops;
      if (!workload.Verify()) {
        ++phase.failed;
      }
      now = NowNs();
      block.busy_ns += now - op_begin;
    } while (now < deadline);
  }
  return phase;
}

// The raw samples of the phase's steadiest slices.
struct Pooled {
  std::vector<std::uint64_t> samples;
  std::uint64_t busy_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::vector<std::uint64_t> setups;
  std::uint64_t probe_ns = 0;  // slowest median speed probe among the slices

  double OpsPerSecond() const {
    return busy_ns == 0 ? 0.0
                        : static_cast<double>(samples.size()) * 1e9 / static_cast<double>(busy_ns);
  }
};

// The slices with the fastest median speed probe: a tenth of them, or more
// if that is needed to reach kMinPooledSamples.
Pooled SteadySlices(const Phase& phase) {
  std::vector<std::pair<std::uint64_t, const Block*>> ranked;
  for (const Block& block : phase.blocks) {
    std::vector<std::uint64_t> probes = block.probes;
    ranked.emplace_back(e2e::Quantile(probes, 0.5), &block);
  }
  std::sort(ranked.begin(), ranked.end());
  Pooled pooled;
  const std::size_t min_blocks = (ranked.size() + kBlockShare - 1) / kBlockShare;
  for (std::size_t i = 0;
       i < ranked.size() && (i < min_blocks || pooled.samples.size() < kMinPooledSamples); ++i) {
    const Block& block = *ranked[i].second;
    pooled.samples.insert(pooled.samples.end(), block.samples.begin(), block.samples.end());
    pooled.busy_ns += block.busy_ns;
    pooled.cpu_ns += block.cpu_ns;
    pooled.setups.insert(pooled.setups.end(), block.setups.begin(), block.setups.end());
    pooled.probe_ns = ranked[i].first;
  }
  return pooled;
}

double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double CounterValue(const char* name) {
  std::uint64_t value = 0;
  wobs::Registry::Instance().GetMetric(name, &value);
  return static_cast<double>(value);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// --- Output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;
};

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Print(const Options& options, const std::vector<Metric>& metrics, bool correct,
           std::uint64_t attempted, std::uint64_t failed) {
  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n", options.workload.c_str(),
              options.seed, options.seconds, options.trace ? 1 : 0);
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %14.4f %-6s %s\n", metric.name.c_str(), metric.value, metric.unit,
                metric.note.c_str());
  }
  std::printf("  %-34s %14.4f %-6s (%" PRIu64 " of %" PRIu64 " ops)\n", "failed_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio", failed,
              attempted);
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// End-to-end metrics of an untraced phase.
std::vector<Metric> EndToEnd(const Phase& run, std::uint64_t attempted, std::uint64_t failed) {
  Pooled pooled = SteadySlices(run);
  const double ops = static_cast<double>(pooled.samples.size());
  // The probe level tells how fast the machine was in the pooled slices;
  // compare it across runs before comparing their timings.
  const std::string n = "(n=" + std::to_string(pooled.samples.size()) + " of " +
                        std::to_string(run.ops) + ", speed probe <= " +
                        std::to_string(pooled.probe_ns / 1000.0).substr(0, 5) + " us)";
  const double p50 = static_cast<double>(e2e::Quantile(pooled.samples, 0.50)) / 1000.0;
  const double p99 = static_cast<double>(e2e::Quantile(pooled.samples, 0.99)) / 1000.0;
  const double setup_s = static_cast<double>(e2e::Quantile(pooled.setups, 0.5)) / 1e9;
  return {
      {"op_p50_us", p50, "us", n},
      {"op_p99_us", p99, "us", n},
      {"ops_per_s", pooled.OpsPerSecond(), "1/s", ""},
      {"cpu_us_per_op", static_cast<double>(pooled.cpu_ns) / 1000.0 / ops, "us", ""},
      {"setup_s", setup_s, "s", "(n=" + std::to_string(pooled.setups.size()) + ")"},
      {"rss_peak_mib", PeakRssMib(), "MiB", ""},
      {"ok_ratio", 1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio", ""},
  };
}

// Per-layer metrics of a traced phase, its ladder, and the untraced phase
// that preceded it.
std::vector<Metric> PerLayer(const e2e::Tracer& tracer, const e2e::Ladder& ladder,
                             const Phase& plain, const Phase& traced) {
  using e2e::Rung;
  using e2e::Stage;
  const double ops = static_cast<double>(tracer.ops());
  auto per_op_us = [&](Stage stage) {
    return static_cast<double>(tracer.stage_ns(stage)) / 1000.0 / ops;
  };
  auto counter_ratio = [](const char* hits, const char* misses) {
    const double h = CounterValue(hits);
    return Ratio(h, h + CounterValue(misses));
  };
  auto ladder_diff = [&](Rung upper, Rung lower) {
    return ladder.Has(upper) && ladder.Has(lower)
               ? ladder.MedianUs(upper) - ladder.MedianUs(lower)
               : 0.0;
  };
  // The Xt call a line ends in: SetValues for updates, CreateWidget for
  // creation lines.
  const Rung xt_rung = ladder.Has(Rung::kSetValues) ? Rung::kSetValues : Rung::kCreateWidget;
  double attributed = 0.0;
  for (int s = 0; s < static_cast<int>(Stage::kCount); ++s) {
    attributed += per_op_us(static_cast<Stage>(s));
  }
  const double op_us = static_cast<double>(tracer.op_ns()) / 1000.0 / ops;
  return {
      {"backend.wait_us", per_op_us(Stage::kBackendWait), "us", ""},
      {"backend.write_us", per_op_us(Stage::kBackendWrite), "us", ""},
      {"comm.read_us_per_line",
       Ratio(static_cast<double>(tracer.stage_ns(Stage::kCommRead)) / 1000.0,
             static_cast<double>(tracer.lines())),
       "us", "(" + std::to_string(tracer.lines()) + " lines)"},
      {"comm.reads_per_op", static_cast<double>(tracer.reads()) / ops, "count", ""},
      {"comm.self_us_per_line", ladder_diff(Rung::kReplayLine, Rung::kEval), "us", "(ladder)"},
      {"tcl.eval_us_per_line", ladder.MedianUs(Rung::kEval), "us", "(ladder)"},
      {"tcl.self_us_per_line", ladder_diff(Rung::kEval, xt_rung), "us", "(ladder)"},
      {"tcl.script_cache_hit_ratio",
       counter_ratio("tcl.script.cache.hits", "tcl.script.cache.misses"), "ratio", ""},
      {"xt.setvalues_us", ladder.MedianUs(Rung::kSetValues), "us", "(ladder)"},
      {"xt.dispatch_us", per_op_us(Stage::kDispatch), "us", ""},
      {"xt.create_us_per_widget", ladder.MedianUs(Rung::kCreateWidget), "us", "(ladder)"},
      {"xt.realize_us", ladder.MedianUs(Rung::kPopup), "us", "(ladder)"},
      {"xt.destroy_us", ladder.MedianUs(Rung::kDestroy), "us", "(ladder)"},
      {"xt.converter_cache_hit_ratio",
       counter_ratio("xt.converter.cache.hits", "xt.converter.cache.misses"), "ratio", ""},
      {"xt.xrm_queries_per_op", CounterValue("xt.xrm.queries") / ops, "count", ""},
      {"xt.translations_compile_hit_ratio",
       counter_ratio("xt.translations.compile.hits", "xt.translations.compile.misses"), "ratio",
       ""},
      {"xaw.expose_us", per_op_us(Stage::kExpose), "us", ""},
      {"xsim.inject_us", per_op_us(Stage::kInject), "us", ""},
      {"xsim.flush_us", per_op_us(Stage::kFlush), "us", ""},
      {"xsim.coalesce_ratio",
       Ratio(CounterValue("xsim.refresh.flushed"), CounterValue("xsim.refresh.requested")),
       "ratio", ""},
      {"unattributed_us", op_us - attributed, "us",
       "(of " + FormatNumber(op_us).substr(0, 8) + " us per traced op)"},
      {"trace.overhead_ratio",
       Ratio(SteadySlices(traced).OpsPerSecond(), SteadySlices(plain).OpsPerSecond()), "ratio", ""},
  };
}

std::string SelfExe() {
  char path[PATH_MAX];
  ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  return n > 0 ? std::string(path, static_cast<std::size_t>(n)) : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--backend") == 0) {
    return e2e::RunPrimeBackend();
  }
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out file]\n",
                 argv[0]);
    return 2;
  }
  AllowedCpus();  // before anything pins this process
  std::unique_ptr<e2e::Workload> workload =
      e2e::MakeWorkload(options.workload, options.seed, SelfExe());
  if (workload == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload \"%s\"\n", options.workload.c_str());
    return 2;
  }
  ::signal(SIGALRM, OnAlarm);
  ::alarm(static_cast<unsigned>(std::min(170.0, 60.0 + 2.0 * options.seconds)));

  // Set-up builds the instance the ops run on; the untraced run times
  // further fresh instances (setup_s) at the start of each slice.
  workload->SetUp();
  g_child_pid.store(workload->child_pid());
  std::unique_ptr<e2e::Workload> fresh;
  if (!options.trace) {
    fresh = e2e::MakeWorkload(options.workload, options.seed, SelfExe());
  }

  // Warm-up: caches fill and lazy set-up finishes before timing.
  const Phase warm = RunPhase(*workload, nullptr, std::min(1.0, 0.1 * options.seconds),
                              options.workload.c_str(), fresh.get());
  std::uint64_t attempted = warm.ops;
  std::uint64_t failed = warm.failed;

  std::vector<Metric> metrics;
  if (!options.trace) {
    const Phase run =
        RunPhase(*workload, nullptr, options.seconds, options.workload.c_str(), fresh.get());
    attempted += run.ops;
    failed += run.failed + workload->FinalCheck();
    metrics = EndToEnd(run, attempted, failed);
  } else {
    // The untraced baseline of trace.overhead_ratio, then the traced ops
    // with the program's counters on, then the layer ladder.
    const Phase plain =
        RunPhase(*workload, nullptr, 0.4 * options.seconds, options.workload.c_str());
    wobs::Registry& registry = wobs::Registry::Instance();
    registry.ring().SetCapacity(1u << 16);
    registry.ResetMetrics();
    wobs::SetMetricsEnabled(true);
    e2e::Tracer tracer;
    const Phase traced =
        RunPhase(*workload, &tracer, 0.35 * options.seconds, options.workload.c_str());
    wobs::SetMetricsEnabled(false);
    e2e::Ladder ladder;
    const std::uint64_t ladder_end =
        NowNs() + static_cast<std::uint64_t>(0.25 * options.seconds * 1e9);
    while (NowNs() < ladder_end) {
      workload->LadderStep(ladder);
    }
    attempted += plain.ops + traced.ops;
    failed += plain.failed + traced.failed + workload->FinalCheck();
    metrics = PerLayer(tracer, ladder, plain, traced);
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      const std::string other = "\"otherData\":{\"workload\":\"" + options.workload +
                                "\",\"seed\":" + std::to_string(options.seed) + "}";
      wobs::ExportChromeTrace(out, other);
      if (!out) {
        std::fprintf(stderr, "e2ebench: cannot write %s\n", options.trace_out.c_str());
      }
    }
  }
  workload->TearDown();
  g_child_pid.store(-1);
  const bool correct = failed == 0;
  Print(options, metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}
