// Shared machinery of the end-to-end benchmark: the workload interface, the
// span recorder of the traced run, the layer ladder, exact statistics over
// raw samples, and a seeded generator. Every span is recorded here, around a
// call the benchmark makes into a layer's public function; the program's
// own code is not instrumented further.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/obs.h"

namespace xtk {
class AppContext;
}

namespace e2e {

// splitmix64: the same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  // Uniform in [lo, hi].
  long Between(long lo, long hi) {
    return lo + static_cast<long>(Below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  std::uint64_t state_;
};

// Where a traced op's time goes. Each stage is one public entry point the
// benchmark calls; the stages of one op never overlap, so their sum plus
// the unattributed remainder is the op's latency.
enum class Stage : int {
  kInject,        // xsim: Display::Inject* (synthetic user input)
  kDispatch,      // xt: AppContext::DispatchEvent on non-Expose events
  kExpose,        // xaw: AppContext::DispatchEvent on Expose (redisplay + drawing)
  kFlush,         // xsim: Display::FlushDamage
  kBackendWait,   // backend: poll on Frontend::read_fd() until readable
  kBackendWrite,  // backend: the simulated backend writing its %-lines
  kCommRead,      // comm: Frontend::OnBackendReadable
  kCount,
};

// Records the traced run's spans: per-stage totals for the per-layer
// metrics, and a Chrome trace event per span in the wobs trace ring, which
// main() exports once at exit with wobs::ExportChromeTrace.
class Tracer {
 public:
  template <typename F>
  auto Time(Stage stage, const char* name, F&& fn) {
    const std::uint64_t start = wobs::NowNs();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      fn();
      Close(stage, name, start);
    } else {
      auto result = fn();
      Close(stage, name, start);
      return result;
    }
  }

  // OnBackendReadable bookkeeping: one call that dispatched `lines` lines.
  void CountRead(int lines) {
    ++reads_;
    if (lines > 0) {
      lines_ += static_cast<std::uint64_t>(lines);
    }
  }

  // Brackets one op in a wobs request scope, so the op's spans share one
  // request id; EndOp pushes the op span that encloses the stages.
  void BeginOp();
  void EndOp(const char* workload);

  std::uint64_t ops() const { return ops_; }
  std::uint64_t op_ns() const { return op_ns_; }
  std::uint64_t stage_ns(Stage stage) const { return stage_ns_[static_cast<int>(stage)]; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t lines() const { return lines_; }

 private:
  void Close(Stage stage, const char* name, std::uint64_t start);

  std::array<std::uint64_t, static_cast<int>(Stage::kCount)> stage_ns_{};
  std::optional<wobs::RequestScope> request_;
  std::uint64_t op_start_ = 0;
  std::uint64_t op_ns_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t lines_ = 0;
};

// The layer ladder: the same kind of line enters the instance through
// nested public entry points, and a layer's self time is the difference
// between the medians at adjacent rungs.
enum class Rung : int {
  kReplayLine,    // comm: Frontend::ReplayLine (the %-line, prefix included)
  kEval,          // tcl: Wafe::Eval (prefix stripped)
  kSetValues,     // xt: AppContext::SetValues
  kCreateWidget,  // xt: AppContext::CreateWidget
  kPopup,         // xt: AppContext::Popup (realizes the shell)
  kDestroy,       // xt: AppContext::DestroyWidget
  kCount,
};

class Ladder {
 public:
  template <typename F>
  void Time(Rung rung, F&& fn) {
    const std::uint64_t start = wobs::NowNs();
    fn();
    samples_[static_cast<int>(rung)].push_back(wobs::NowNs() - start);
  }
  // Median of the rung's samples in microseconds; 0 when it has none.
  double MedianUs(Rung rung) const;
  bool Has(Rung rung) const { return !samples_[static_cast<int>(rung)].empty(); }

 private:
  std::array<std::vector<std::uint64_t>, static_cast<int>(Rung::kCount)> samples_;
};

// Exact nearest-rank quantile (0 < q <= 1) of raw samples; sorts in place.
std::uint64_t Quantile(std::vector<std::uint64_t>& samples, double q);

// ProcessPending taken apart into its public calls (NextEvent,
// DispatchEvent, FlushDamage) so each lands in its own stage.
void DrainTraced(xtk::AppContext& app, Tracer& tracer);

// A benchmark workload: one closed loop driven by a single simulated user
// or backend. The harness times Run() only; Prepare() and Verify() are the
// simulated user's own bookkeeping.
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds a fresh instance until the first op can start; SetUp runs several
  // times per run (setup_s is their median) and the last instance is kept.
  virtual void SetUp() = 0;
  virtual void TearDown() = 0;

  virtual void Prepare() = 0;
  // One op. With a tracer it is decomposed into timed public calls.
  virtual void Run(Tracer* tracer) = 0;
  // Output check of the op just run; false fails it.
  virtual bool Verify() = 0;
  // End-of-run output check; returns the number of ops it fails.
  virtual std::uint64_t FinalCheck() { return 0; }

  // One sample of the layer ladder.
  virtual void LadderStep(Ladder& ladder) = 0;

  // Pid of a forked backend the watchdog must kill, or -1.
  virtual int child_pid() const { return -1; }
};

// Workloads by name; null for an unknown name. `self_exe` is this binary,
// re-executed as the backend where a workload forks one.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& self_exe);

// The prime-factor backend (this binary run with --backend).
int RunPrimeBackend();

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
