// The four workloads. Each drives a real wafe::Wafe through its public
// entry points only. Untraced, an op runs through the program's own loop
// (AppContext::RunOneIteration / ProcessPending); traced, the same op is
// taken apart into the public calls that loop makes, each timed as a stage.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/harness.h"
#include "src/core/comm.h"
#include "src/core/wafe.h"
#include "src/xsim/display.h"
#include "src/xsim/keysym.h"
#include "src/xt/app.h"
#include "src/xt/widget.h"

namespace e2e {

namespace {

using Args = std::vector<std::pair<std::string, std::string>>;

// Backend wait bound: a backend silent this long has failed the op.
constexpr int kPollTimeoutMs = 10000;

// Fisher-Yates with the seeded generator.
template <typename T>
void Shuffle(Rng& rng, std::vector<T>& items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

// Trial division; the backend and the checks below share the format
// ("2*2*3"; a prime factors to itself).
std::string Factor(long n) {
  const long original = n;
  std::string factors;
  for (long d = 2; d * d <= n; ++d) {
    while (n % d == 0) {
      factors += (factors.empty() ? "" : "*") + std::to_string(d);
      n /= d;
    }
  }
  if (n > 1 && n != original) {
    factors += "*" + std::to_string(n);
  }
  return factors.empty() ? std::to_string(original) : factors;
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Tcl rendering of a generated value: braces, or double quotes with \n
// escapes for multi-line values (a %-line must stay on one line). The
// generators never put braces, brackets, quotes, `$` or `\` in a value, so
// the value Tcl parses back is exactly `value`.
std::string Quote(const std::string& value) {
  if (value.find('\n') == std::string::npos) {
    return "{" + value + "}";
  }
  std::string out = "\"";
  for (char c : value) {
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return out + "\"";
}

// One widget-creation line, kept structured so the ladder can issue the
// same creation through AppContext::CreateWidget.
struct Creation {
  std::string command;     // Wafe creation command ("label")
  std::string class_name;  // Xt class ("Label")
  std::string name;
  std::string parent;
  Args args;

  std::string Script() const {
    std::string line = command + " " + name + " " + parent;
    for (const auto& [attr, value] : args) {
      line += " " + attr + " " + Quote(value);
    }
    return line;
  }
};

// --- Driving the loop -------------------------------------------------------------

// Untraced: the program's own main loop until `target` %-lines have been
// handled in total, then to quiescence.
void PumpLines(wafe::Wafe& wafe, std::size_t target) {
  while (wafe.frontend().lines_received() < target) {
    if (!wafe.app().RunOneIteration(true)) {
      break;
    }
  }
  wafe.app().ProcessPending();
}

// Traced: the same loop as its public calls — poll the backend fd, read and
// dispatch lines, drain the display.
void PumpLinesTraced(wafe::Wafe& wafe, std::size_t target, Tracer& tracer) {
  wafe::Frontend& frontend = wafe.frontend();
  DrainTraced(wafe.app(), tracer);
  while (frontend.lines_received() < target) {
    const int ready = tracer.Time(Stage::kBackendWait, "poll", [&] {
      pollfd fd{frontend.read_fd(), POLLIN, 0};
      return ::poll(&fd, 1, kPollTimeoutMs);
    });
    if (ready <= 0) {
      break;
    }
    const int lines = tracer.Time(Stage::kCommRead, "Frontend::OnBackendReadable",
                                  [&] { return frontend.OnBackendReadable(); });
    if (lines < 0) {
      break;
    }
    tracer.CountRead(lines);
    DrainTraced(wafe.app(), tracer);
  }
}

// A pipe pair adopted with Frontend::AdoptBackend: the benchmark plays the
// backend, writing %-lines and reading what Wafe sends back.
class PipeBackend {
 public:
  PipeBackend() = default;
  ~PipeBackend() { Close(); }

  PipeBackend(const PipeBackend&) = delete;
  PipeBackend& operator=(const PipeBackend&) = delete;

  bool Attach(wafe::Wafe& wafe) {
    int to_wafe[2];
    int from_wafe[2];
    if (::pipe(to_wafe) != 0) {
      return false;
    }
    if (::pipe(from_wafe) != 0) {
      ::close(to_wafe[0]);
      ::close(to_wafe[1]);
      return false;
    }
    write_fd_ = to_wafe[1];
    read_fd_ = from_wafe[0];
    ::fcntl(read_fd_, F_SETFL, O_NONBLOCK);
    wafe.set_backend_output(true);
    wafe.frontend().AdoptBackend(to_wafe[0], from_wafe[1]);  // Wafe owns these ends
    return true;
  }

  void Close() {
    if (write_fd_ >= 0) {
      ::close(write_fd_);
    }
    if (read_fd_ >= 0) {
      ::close(read_fd_);
    }
    write_fd_ = read_fd_ = -1;
    pending_.clear();
  }

  bool Write(const std::string& bytes) { return WriteAll(write_fd_, bytes); }

  // Complete lines Wafe has written back since the last call.
  std::vector<std::string> ReadLines() {
    char buffer[4096];
    ssize_t n;
    while ((n = ::read(read_fd_, buffer, sizeof(buffer))) > 0) {
      pending_.append(buffer, static_cast<std::size_t>(n));
    }
    std::vector<std::string> lines;
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = pending_.find('\n', start)) != std::string::npos) {
      lines.push_back(pending_.substr(start, nl - start));
      start = nl + 1;
    }
    pending_.erase(0, start);
    return lines;
  }

 private:
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::string pending_;
};

bool NoErrorReplies(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    if (line.rfind("error", 0) == 0) {
      return false;
    }
  }
  return true;
}

// --- roundtrip ----------------------------------------------------------------------
//
// Why: the paper's unit of work (Figure 5, phase 3) and the only workload
// with process wake-ups and backend wait. It shows whether a frontend gain
// survives the IPC that dominates it.

// The widget tree the prime-factor backend builds (paper Figure 5, phase 2).
const char* const kPrimeTree[] = {
    "%form top topLevel",
    "%asciiText input top editType edit width 200",
    "%action input override {<Key>Return: exec(echo [gV input string])}",
    "%label result top label {} width 200 fromVert input",
    "%command quit top fromVert result callback quit",
    "%label info top fromVert result fromHoriz quit label {} borderWidth 0 width 150",
    "%realize",
};
constexpr std::size_t kPrimeTreeLines = sizeof(kPrimeTree) / sizeof(kPrimeTree[0]);

// Pins the backend `pid` to the CPU after the one this process runs on.
// (The harness re-pins both, by speed, at the start of every slice.) Left
// to the scheduler, frontend and backend share a CPU in some runs and not
// in others, and op latency differs by up to 1.5x between the two. On
// separate CPUs a reply wakes the waiting frontend instead of preempting it
// mid-dispatch, so backend time shows as backend wait.
void PinBackendBesideFrontend(int pid) {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int cpu = ::sched_getcpu();
  if (pid < 0 || cpus < 2 || cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>((cpu + 1) % cpus), &set);
  ::sched_setaffinity(pid, sizeof(set), &set);
}

class Roundtrip : public Workload {
 public:
  Roundtrip(std::uint64_t seed, std::string self_exe)
      : rng_(seed), ladder_rng_(seed ^ 0x1adde5ull), self_exe_(std::move(self_exe)) {}

  void SetUp() override {
    input_ = result_ = info_ = nullptr;
    wafe_ = std::make_unique<wafe::Wafe>();
    wafe_->set_backend_output(true);
    std::string error;
    if (!wafe_->frontend().SpawnBackend(self_exe_, {"--backend"}, &error)) {
      std::fprintf(stderr, "e2ebench: cannot spawn backend: %s\n", error.c_str());
      return;
    }
    PinBackendBesideFrontend(wafe_->frontend().backend_pid());
    PumpLines(*wafe_, kPrimeTreeLines);
    input_ = wafe_->app().FindWidget("input");
    result_ = wafe_->app().FindWidget("result");
    info_ = wafe_->app().FindWidget("info");
    if (input_ != nullptr) {
      wafe_->app().display().SetInputFocus(input_->window());
    }
  }

  void TearDown() override { wafe_.reset(); }

  int child_pid() const override { return wafe_ ? wafe_->frontend().backend_pid() : -1; }

  void Prepare() override {
    const long n = rng_.Between(2, 99999);
    number_ = std::to_string(n);
    expected_ = Factor(n);
    // The user clears the entry field before typing the next number.
    wafe_->Eval("sV input string {}");
    wafe_->Eval("sV info label waiting");
    wafe_->app().ProcessPending();
    errors_before_ = wafe_->frontend().eval_errors();
    target_lines_ = wafe_->frontend().lines_received() + 3;
  }

  void Run(Tracer* tracer) override {
    xsim::Display& display = wafe_->app().display();
    if (tracer == nullptr) {
      display.InjectText(number_);
      display.InjectKeyPress(xsim::kKeyReturn);
      PumpLines(*wafe_, target_lines_);
      return;
    }
    tracer->Time(Stage::kInject, "Display::InjectText", [&] {
      display.InjectText(number_);
      display.InjectKeyPress(xsim::kKeyReturn);
    });
    PumpLinesTraced(*wafe_, target_lines_, *tracer);
  }

  bool Verify() override {
    return input_ != nullptr && wafe_->frontend().lines_received() == target_lines_ &&
           wafe_->frontend().eval_errors() == errors_before_ &&
           result_->GetString("label") == expected_ && info_->GetString("label") == "0 seconds";
  }

  void LadderStep(Ladder& ladder) override {
    // The backend's result line for a fresh number, through one rung.
    const std::string value = Factor(ladder_rng_.Between(2, 99999));
    const std::string line = "%sV result label {" + value + "}";
    switch (step_++ % 3) {
      case 0:
        ladder.Time(Rung::kReplayLine, [&] { wafe_->frontend().ReplayLine(line); });
        break;
      case 1:
        ladder.Time(Rung::kEval, [&] { wafe_->Eval(std::string_view(line).substr(1)); });
        break;
      default: {
        const Args args = {{"label", value}};
        std::string error;
        ladder.Time(Rung::kSetValues,
                    [&] { wafe_->app().SetValues(result_, args, &error); });
        break;
      }
    }
    wafe_->app().ProcessPending();
  }

 private:
  Rng rng_;
  Rng ladder_rng_;
  std::string self_exe_;
  std::unique_ptr<wafe::Wafe> wafe_;
  xtk::Widget* input_ = nullptr;
  xtk::Widget* result_ = nullptr;
  xtk::Widget* info_ = nullptr;
  std::string number_;
  std::string expected_;
  std::size_t errors_before_ = 0;
  std::size_t target_lines_ = 0;
  std::uint64_t step_ = 0;
};

// --- storm --------------------------------------------------------------------------
//
// Why: the statmonitor/xnetstats pattern, a backend streaming periodic
// updates. Each tick is what examples/statmonitor.cpp sends per interval,
// for kStormInterfaces interfaces instead of one: the rx and tx labels once
// each, one strip-chart sample (rx) and one bar-graph sample (tx). The
// label lines exercise comm line splitting, Tcl compile and eval, and Xt
// SetValues; values are unique literals, as real statistics are, so most
// lines miss the script cache. Each sample line redraws its whole chart at
// once (StripChartAddValue and PlotterAddSample call AppContext::Redraw),
// and on the seed code those lines take most of the op.

constexpr int kStormInterfaces = 6;
constexpr int kStormBatch = 4 * kStormInterfaces;  // lines per op (one tick)
constexpr int kStormPoolBatches = 512;  // 12288 lines, nearly all distinct: far
                                        // above the 512-entry script cache
constexpr int kStormColumns = 3;

class Storm : public Workload {
 public:
  // The seed picks the packet counts. They have four digits, so no update
  // changes a label's size.
  explicit Storm(std::uint64_t seed) : ladder_rng_(seed ^ 0x5707ull) {
    Rng rng(seed);
    batches_.resize(kStormPoolBatches);
    for (Batch& batch : batches_) {
      for (int i = 0; i < kStormInterfaces; ++i) {
        const std::string rx = std::to_string(rng.Between(1000, 9999));
        const std::string tx = std::to_string(rng.Between(1000, 9999));
        const std::string n = std::to_string(i);
        batch.text += "%sV rx" + n + " label {" + LabelText("rx", rx) + "}\n" +
                      "%sV tx" + n + " label {" + LabelText("tx", tx) + "}\n" +
                      "%stripChartAddValue chart" + n + " " + rx + "\n" +
                      "%plotterAddSample bars" + n + " " + tx + "\n";
        batch.rx.push_back(rx);
        batch.tx.push_back(tx);
      }
    }
  }

  void SetUp() override {
    widgets_.clear();
    wafe_ = std::make_unique<wafe::Wafe>();
    pipe_ = std::make_unique<PipeBackend>();
    if (!pipe_->Attach(*wafe_)) {
      return;
    }
    // The monitor tree, built by the backend over the pipe: statmonitor's
    // column of widgets per interface, kStormColumns interfaces a row.
    std::string tree = "%form mon topLevel\n%label title mon label {Interface statistics} "
                       "borderWidth 0\n";
    const char* const kinds[] = {"rx", "tx", "chart", "bars"};
    for (int i = 0; i < kStormInterfaces; ++i) {
      const std::string n = std::to_string(i);
      const std::string creations[] = {
          "%label rx" + n + " mon label {" + LabelText("rx", "0000") + "} width 120 justify left",
          "%label tx" + n + " mon label {" + LabelText("tx", "0000") + "} width 120 justify left",
          "%stripChart chart" + n + " mon width 120 height 50",
          "%barGraph bars" + n + " mon width 120 height 60"};
      std::string above = i < kStormColumns ? "title" : "bars" + std::to_string(i - kStormColumns);
      for (int k = 0; k < 4; ++k) {
        tree += creations[k] + " fromVert " + above;
        if (i % kStormColumns != 0) {
          tree += " fromHoriz " + std::string(kinds[k]) + std::to_string(i - 1);
        }
        tree += "\n";
        above = kinds[k] + n;
      }
    }
    tree += "%realize\n";
    pipe_->Write(tree);
    PumpLines(*wafe_, static_cast<std::size_t>(std::count(tree.begin(), tree.end(), '\n')));
    for (int i = 0; i < kStormInterfaces; ++i) {
      auto find = [&](const char* kind) {
        return wafe_->app().FindWidget(kind + std::to_string(i));
      };
      widgets_.push_back({find("rx"), find("tx"), find("chart"), find("bars")});
    }
    pipe_->ReadLines();
  }

  void TearDown() override {
    wafe_.reset();
    pipe_.reset();
  }

  void Prepare() override {
    batch_ = &batches_[next_++ % batches_.size()];
    errors_before_ = wafe_->frontend().eval_errors();
    target_lines_ = wafe_->frontend().lines_received() + kStormBatch;
  }

  void Run(Tracer* tracer) override {
    if (tracer == nullptr) {
      pipe_->Write(batch_->text);
      PumpLines(*wafe_, target_lines_);
      return;
    }
    tracer->Time(Stage::kBackendWrite, "write", [&] { pipe_->Write(batch_->text); });
    PumpLinesTraced(*wafe_, target_lines_, *tracer);
  }

  bool Verify() override {
    // Every widget shows the value the tick sent it.
    bool ok = wafe_->frontend().lines_received() == target_lines_ &&
              wafe_->frontend().eval_errors() == errors_before_ &&
              NoErrorReplies(pipe_->ReadLines());
    for (std::size_t i = 0; ok && i < widgets_.size(); ++i) {
      const Widgets& w = widgets_[i];
      const std::string& rx = batch_->rx[i];
      const std::string& tx = batch_->tx[i];
      ok = w.rx != nullptr && w.tx != nullptr && w.chart != nullptr && w.bars != nullptr &&
           w.rx->GetString("label") == LabelText("rx", rx) &&
           w.tx->GetString("label") == LabelText("tx", tx) && Last(*w.chart, "_samples") == rx &&
           Last(*w.bars, "_plotData") == tx;
    }
    return ok;
  }

  void LadderStep(Ladder& ladder) override {
    const int i = static_cast<int>(ladder_rng_.Below(kStormInterfaces));
    const std::string value = LabelText("rx", std::to_string(ladder_rng_.Between(1000, 9999)));
    const std::string line = "%sV rx" + std::to_string(i) + " label {" + value + "}";
    switch (step_++ % 3) {
      case 0:
        ladder.Time(Rung::kReplayLine, [&] { wafe_->frontend().ReplayLine(line); });
        break;
      case 1:
        ladder.Time(Rung::kEval, [&] { wafe_->Eval(std::string_view(line).substr(1)); });
        break;
      default: {
        const Args args = {{"label", value}};
        std::string error;
        ladder.Time(Rung::kSetValues, [&] {
          wafe_->app().SetValues(widgets_[static_cast<std::size_t>(i)].rx, args, &error);
        });
        break;
      }
    }
    wafe_->app().ProcessPending();
  }

 private:
  struct Batch {
    std::string text;
    std::vector<std::string> rx;  // per interface
    std::vector<std::string> tx;
  };
  struct Widgets {
    xtk::Widget* rx = nullptr;
    xtk::Widget* tx = nullptr;
    xtk::Widget* chart = nullptr;
    xtk::Widget* bars = nullptr;
  };

  static std::string LabelText(const std::string& kind, const std::string& packets) {
    return kind + ": " + packets + " pkts/s";
  }

  static std::string Last(const xtk::Widget& widget, const char* samples_key) {
    const std::vector<std::string> samples = widget.GetStringList(samples_key);
    return samples.empty() ? std::string() : samples.back();
  }

  std::vector<Batch> batches_;
  Rng ladder_rng_;
  std::unique_ptr<wafe::Wafe> wafe_;
  std::unique_ptr<PipeBackend> pipe_;
  std::vector<Widgets> widgets_;
  const Batch* batch_ = nullptr;
  std::size_t next_ = 0;
  std::size_t errors_before_ = 0;
  std::size_t target_lines_ = 0;
  std::uint64_t step_ = 0;
};

// --- redraw -------------------------------------------------------------------------
//
// Why: a user working the GUI with no backend. Rendering and resource reads
// dominate, comm is absent, and the callbacks hit the script cache.

constexpr int kRedrawCommands = 30;
constexpr int kRedrawLabels = 50;
constexpr int kRedrawToggles = 16;
constexpr int kRedrawTexts = 4;
constexpr int kRedrawColumns = 8;
constexpr int kRedrawColumnWidth = 110;  // wider than any widget in it
// Every Nth op exposes the whole shell, as when the window is uncovered.
// This rate and the gesture mix in Prepare() are assumptions, not taken
// from recorded sessions.
constexpr int kRedrawExposeEvery = 256;
constexpr int kRedrawCheckEvery = 997;  // framebuffer check interval, in ops
constexpr std::size_t kRedrawTextLimit = 24;

enum class Gesture { kClick, kToggle, kType, kExpose };

class Redraw : public Workload {
 public:
  explicit Redraw(std::uint64_t seed) : rng_(seed), ladder_rng_(seed ^ 0x4ed4a3ull) {
    // Grid order of the widgets and each command's target labels.
    for (int i = 0; i < kRedrawCommands; ++i) {
      order_.push_back("c" + std::to_string(i));
    }
    for (int i = 0; i < kRedrawLabels; ++i) {
      order_.push_back("l" + std::to_string(i));
    }
    for (int i = 0; i < kRedrawToggles; ++i) {
      order_.push_back("t" + std::to_string(i));
    }
    for (int i = 0; i < kRedrawTexts; ++i) {
      order_.push_back("x" + std::to_string(i));
    }
    Shuffle(rng_, order_);
    // Command i relabels 1 + i % 4 labels, so every seed does the same
    // amount of work per click on average; the seed picks which labels.
    targets_.resize(kRedrawCommands);
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      std::vector<int>& targets = targets_[i];
      const int count = 1 + static_cast<int>(i % 4);
      while (static_cast<int>(targets.size()) < count) {
        const int label = static_cast<int>(rng_.Below(kRedrawLabels));
        if (std::find(targets.begin(), targets.end(), label) == targets.end()) {
          targets.push_back(label);
        }
      }
    }
  }

  void SetUp() override {
    wafe_ = std::make_unique<wafe::Wafe>();
    // Absolute columns (horizDistance), so a label's width change moves no
    // sibling; the edge label pins the form's width. Labels share the form's
    // background and draw no border or shadow, so a narrower label leaves
    // nothing a full redraw would paint differently.
    std::string script =
        "form f topLevel background gray90\n"
        "label edge f label {} borderWidth 0 shadowWidth 0 background gray90 width 20 "
        "horizDistance " + std::to_string(kRedrawColumns * kRedrawColumnWidth + 4) + "\n";
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::string& name = order_[i];
      std::string place = " horizDistance " +
                          std::to_string((i % kRedrawColumns) * kRedrawColumnWidth + 4);
      if (i >= kRedrawColumns) {
        place += " fromVert " + order_[i - kRedrawColumns];
      }
      switch (name[0]) {
        case 'c':
          script += "command " + name + " f label " + name + " width 60 callback {" +
                    CallbackScript(std::stoi(name.substr(1))) + "}" + place + "\n";
          break;
        case 'l':
          script += "label " + name + " f label " + name +
                    " width 70 justify left borderWidth 0 shadowWidth 0 background gray90" +
                    place + "\n";
          break;
        case 't':
          script += "toggle " + name + " f label " + name + " width 60" + place + "\n";
          break;
        default:
          script += "asciiText " + name + " f editType edit width 90 string {}" + place + "\n";
          break;
      }
    }
    script += "realize\n";
    if (wafe_->Eval(script).code != wtcl::Status::kOk) {
      std::fprintf(stderr, "e2ebench: redraw tree failed\n");
    }
    wafe_->app().ProcessPending();
    top_ = wafe_->top_level();
    clicks_.assign(kRedrawCommands, 0);
    typed_.assign(kRedrawTexts, "");
    ops_since_check_ = 0;
  }

  void TearDown() override { wafe_.reset(); }

  void Prepare() override {
    ++op_;
    if (op_ % kRedrawExposeEvery == 0) {
      gesture_ = Gesture::kExpose;
      return;
    }
    // 80% clicks, 8% toggles, 12% typing (an assumed mix).
    const std::uint64_t pick = rng_.Below(25);
    if (pick < 20) {
      gesture_ = Gesture::kClick;
      index_ = static_cast<int>(rng_.Below(kRedrawCommands));
      widget_ = Find("c", index_);
      ++clicks_[static_cast<std::size_t>(index_)];
    } else if (pick < 22) {
      gesture_ = Gesture::kToggle;
      index_ = static_cast<int>(rng_.Below(kRedrawToggles));
      widget_ = Find("t", index_);
      state_before_ = State();
    } else {
      gesture_ = Gesture::kType;
      index_ = static_cast<int>(rng_.Below(kRedrawTexts));
      widget_ = Find("x", index_);
      std::string& typed = typed_[static_cast<std::size_t>(index_)];
      if (typed.size() > kRedrawTextLimit) {
        // The user clears the field before it overflows.
        wafe_->Eval("sV x" + std::to_string(index_) + " string {}");
        wafe_->app().ProcessPending();
        typed.clear();
      }
      text_.clear();
      const long length = rng_.Between(1, 4);
      for (long i = 0; i < length; ++i) {
        text_ += static_cast<char>('a' + rng_.Below(26));
      }
      typed += text_;
    }
    if (gesture_ != Gesture::kType) {
      const xsim::Point origin = wafe_->app().display().RootPosition(widget_->window());
      point_ = xsim::Point{origin.x + 3, origin.y + 3};
    }
  }

  void Run(Tracer* tracer) override {
    if (tracer == nullptr) {
      Inject();
      wafe_->app().ProcessPending();
      return;
    }
    tracer->Time(Stage::kInject, InjectName(), [&] { Inject(); });
    DrainTraced(wafe_->app(), *tracer);
  }

  bool Verify() override {
    bool ok = true;
    switch (gesture_) {
      case Gesture::kClick: {
        const std::string count = std::to_string(clicks_[static_cast<std::size_t>(index_)]);
        for (int label : targets_[static_cast<std::size_t>(index_)]) {
          ok = ok && Find("l", label)->GetString("label") ==
                         "l" + std::to_string(label) + " " + count;
        }
        break;
      }
      case Gesture::kToggle:
        ok = State() != state_before_;
        break;
      case Gesture::kType:
        ok = widget_->GetString("string") == typed_[static_cast<std::size_t>(index_)];
        break;
      case Gesture::kExpose:
        break;
    }
    if (++ops_since_check_ >= kRedrawCheckEvery) {
      failed_by_check_ += FramebufferCheck();
    }
    return ok;
  }

  std::uint64_t FinalCheck() override { return failed_by_check_ + FramebufferCheck(); }

  void LadderStep(Ladder& ladder) override {
    // A command's callback script (a script-cache hit, as in the loop) at
    // the Tcl rung, or the SetValues calls it makes at the Xt rung.
    const int command = static_cast<int>(ladder_rng_.Below(kRedrawCommands));
    const std::string script = CallbackScript(command);
    if (step_++ % 2 == 0) {
      ladder.Time(Rung::kEval, [&] { wafe_->Eval(script); });
      ++clicks_[static_cast<std::size_t>(command)];
    } else {
      const long count = ++clicks_[static_cast<std::size_t>(command)];
      const std::vector<int>& targets = targets_[static_cast<std::size_t>(command)];
      std::vector<std::pair<xtk::Widget*, Args>> updates;
      for (int label : targets) {
        updates.emplace_back(Find("l", label),
                             Args{{"label", "l" + std::to_string(label) + " " +
                                                std::to_string(count)},
                                  {"width", std::to_string(70 + (count & 31))}});
      }
      std::string error;
      ladder.Time(Rung::kSetValues, [&] {
        for (const auto& [widget, args] : updates) {
          wafe_->app().SetValues(widget, args, &error);
        }
      });
      wafe_->Eval("set clicks(c" + std::to_string(command) + ") " + std::to_string(count));
    }
    wafe_->app().ProcessPending();
  }

 private:
  // The callback of command `i`: count the click, then relabel and resize
  // 1-4 labels (text plus width, so resize and repaint).
  std::string CallbackScript(int i) const {
    const std::string counter = "clicks(c" + std::to_string(i) + ")";
    std::string script = "incr " + counter;
    for (int label : targets_[static_cast<std::size_t>(i)]) {
      const std::string name = "l" + std::to_string(label);
      script += "; sV " + name + " label \"" + name + " $" + counter + "\" width [expr {70 + ($" +
                counter + " & 31)}]";
    }
    return script;
  }

  // The toggle's state resource in string form, as getValue reports it.
  std::string State() const {
    std::string value;
    std::string error;
    wafe_->app().GetValue(widget_, "state", &value, &error);
    return value;
  }

  xtk::Widget* Find(const char* prefix, int index) const {
    return wafe_->app().FindWidget(prefix + std::to_string(index));
  }

  const char* InjectName() const {
    switch (gesture_) {
      case Gesture::kType:
        return "Display::InjectText";
      case Gesture::kExpose:
        return "Display::AddDamage";
      default:
        return "Display::InjectButton";
    }
  }

  void Inject() {
    xsim::Display& display = wafe_->app().display();
    switch (gesture_) {
      case Gesture::kClick:
      case Gesture::kToggle:
        display.InjectButtonPress(point_.x, point_.y, 1);
        display.InjectButtonRelease(point_.x, point_.y, 1);
        break;
      case Gesture::kType:
        display.SetInputFocus(widget_->window());
        display.InjectText(text_);
        break;
      case Gesture::kExpose:
        display.AddDamage(top_->window(), xsim::Rect{0, 0, top_->width(), top_->height()});
        break;
    }
  }

  // FNV-1a over the framebuffer.
  std::uint64_t Checksum() const {
    std::uint64_t hash = 1469598103934665603ull;
    for (xsim::Pixel pixel : wafe_->app().display().framebuffer()) {
      hash = (hash ^ pixel) * 1099511628211ull;
    }
    return hash;
  }

  // The incrementally drawn framebuffer must equal a full redraw of the
  // same tree; a mismatch fails every op since the last check.
  std::uint64_t FramebufferCheck() {
    const std::uint64_t incremental = Checksum();
    wafe_->app().Redraw(top_);
    wafe_->app().ProcessPending();
    const std::uint64_t ops = ops_since_check_;
    ops_since_check_ = 0;
    return Checksum() == incremental ? 0 : std::max<std::uint64_t>(ops, 1);
  }

  Rng rng_;
  Rng ladder_rng_;
  std::vector<std::string> order_;
  std::vector<std::vector<int>> targets_;
  std::unique_ptr<wafe::Wafe> wafe_;
  xtk::Widget* top_ = nullptr;
  std::vector<long> clicks_;
  std::vector<std::string> typed_;
  std::uint64_t op_ = 0;
  Gesture gesture_ = Gesture::kClick;
  int index_ = 0;
  xtk::Widget* widget_ = nullptr;
  xsim::Point point_;
  std::string state_before_;
  std::string text_;
  std::uint64_t ops_since_check_ = 0;
  std::uint64_t failed_by_check_ = 0;
  std::uint64_t step_ = 0;
};

// --- build --------------------------------------------------------------------------
//
// Why: dialog churn, the only workload where the Xt creation path dominates
// (resource initialization, converter cache, Xrm queries, quark interning,
// translation compile, window creation). A change that speeds resource
// reads in storm and redraw by making creation dearer shows up here.

constexpr int kBuildTemplates = 48;
constexpr int kDialogRows = 8;  // label + text field per row

const char* const kWords[] = {"name",   "host",  "port",   "user",  "path",   "mode",
                              "size",   "owner", "group",  "level", "format", "query",
                              "timeout", "retry", "buffer", "limit", "cache",  "proxy"};
const char* const kColors[] = {"navy", "gray90", "firebrick", "forestgreen", "lightyellow",
                               "midnightblue", "lavender", "#336699", "#f0f0e0", "black"};
const char* const kFonts[] = {"fixed", "9x15", "6x13",
                              "-adobe-helvetica-bold-r-normal--12-120-75-75-p-0-iso8859-1",
                              "-adobe-times-medium-r-normal--14-140-75-75-p-0-iso8859-1",
                              "-*-courier-medium-r-normal--12-*"};
const char* const kTranslations[] = {
    "<Key>Return: set() notify() unset()",
    "#override\n<Btn1Down>: set()\n<Btn1Up>: notify() unset()",
    "<EnterWindow>: highlight()\n<LeaveWindow>: reset()",
    "#augment\n<Key>space: set() notify() unset()",
};

const char* const kLabelWidths[] = {"80", "95", "110", "125", "140"};
const char* const kTextWidths[] = {"120", "140", "160", "180", "200"};

// Deals a palette's entries in seeded order, each once per round, so every
// dialog uses each palette evenly: the seed changes which widget gets which
// font or colour, not how costly the dialog is.
class Deck {
 public:
  template <std::size_t N>
  Deck(Rng& rng, const char* const (&palette)[N]) : rng_(rng), entries_(palette, palette + N) {}

  const char* Next() {
    if (next_ == 0) {
      Shuffle(rng_, entries_);
    }
    const char* entry = entries_[next_];
    next_ = (next_ + 1) % entries_.size();
    return entry;
  }

 private:
  Rng& rng_;
  std::vector<const char*> entries_;
  std::size_t next_ = 0;
};

class Build : public Workload {
 public:
  explicit Build(std::uint64_t seed) {
    Rng rng(seed);
    for (int t = 0; t < kBuildTemplates; ++t) {
      templates_.push_back(MakeDialog(rng));
    }
  }

  void SetUp() override {
    wafe_ = std::make_unique<wafe::Wafe>();
    pipe_ = std::make_unique<PipeBackend>();
    if (!pipe_->Attach(*wafe_)) {
      return;
    }
    // The backend's app-defaults first, so widget creation queries a
    // resource database as it would under X.
    pipe_->Write(
        "%mergeResources *Label.internalWidth 6 *Command.highlightThickness 1\n"
        "%form main topLevel\n"
        "%label banner main label {Settings} borderWidth 0\n"
        "%command open main label {Open dialog} fromVert banner callback {echo open}\n"
        "%realize\n");
    PumpLines(*wafe_, 5);
    pipe_->ReadLines();
  }

  void TearDown() override {
    wafe_.reset();
    pipe_.reset();
  }

  void Prepare() override {
    dialog_ = &templates_[next_++ % templates_.size()];
    widgets_before_ = wafe_->app().WidgetCount();
    windows_before_ = wafe_->app().display().WindowCount();
    errors_before_ = wafe_->frontend().eval_errors();
    target_lines_ = wafe_->frontend().lines_received() + dialog_->lines;
  }

  void Run(Tracer* tracer) override {
    if (tracer == nullptr) {
      pipe_->Write(dialog_->text);
      PumpLines(*wafe_, target_lines_);
      return;
    }
    tracer->Time(Stage::kBackendWrite, "write", [&] { pipe_->Write(dialog_->text); });
    PumpLinesTraced(*wafe_, target_lines_, *tracer);
  }

  bool Verify() override {
    // Nothing leaks: widgets and windows return to their pre-op counts,
    // and the dialog was realized with all its children while it was up.
    const std::vector<std::string> replies = pipe_->ReadLines();
    return wafe_->frontend().lines_received() == target_lines_ &&
           wafe_->frontend().eval_errors() == errors_before_ && NoErrorReplies(replies) &&
           replies.size() == 1 && replies[0] == dialog_->reply &&
           wafe_->app().WidgetCount() == widgets_before_ &&
           wafe_->app().display().WindowCount() == windows_before_;
  }

  void LadderStep(Ladder& ladder) override {
    // A whole dialog through one rung, then its popup and destroy.
    const Dialog& dialog = templates_[(step_ / 3) % templates_.size()];
    const int rung = static_cast<int>(step_++ % 3);
    xtk::AppContext& app = wafe_->app();
    for (const Creation& creation : dialog.creations) {
      const std::string script = creation.Script();
      if (rung == 0) {
        const std::string line = "%" + script;
        ladder.Time(Rung::kReplayLine, [&] { wafe_->frontend().ReplayLine(line); });
      } else if (rung == 1) {
        ladder.Time(Rung::kEval, [&] { wafe_->Eval(script); });
      } else {
        xtk::Widget* parent = app.FindWidget(creation.parent);
        const bool shell = parent == wafe_->top_level();
        std::string error;
        ladder.Time(Rung::kCreateWidget, [&] {
          app.CreateWidget(creation.name, creation.class_name, parent, creation.args, !shell,
                           &error);
        });
      }
    }
    xtk::Widget* shell = app.FindWidget("dlg");
    ladder.Time(Rung::kPopup, [&] { app.Popup(shell, xtk::GrabKind::kNone); });
    ladder.Time(Rung::kDestroy, [&] { app.DestroyWidget(shell); });
    app.ProcessPending();
    pipe_->ReadLines();
  }

 private:
  struct Dialog {
    std::vector<Creation> creations;
    std::string text;   // the op's %-lines
    std::size_t lines = 0;
    std::string reply;  // what the op's echo line must send back
  };

  // A transient dialog of 30 widgets: shell, form, eight label + text field
  // rows, six toggles, four buttons and two status lines.
  static Dialog MakeDialog(Rng& rng) {
    Dialog dialog;
    std::vector<Creation>& c = dialog.creations;
    Deck words(rng, kWords);
    Deck colors(rng, kColors);
    Deck fonts(rng, kFonts);
    Deck translations(rng, kTranslations);
    Deck label_widths(rng, kLabelWidths);
    Deck text_widths(rng, kTextWidths);
    c.push_back({"transientShell", "TransientShell", "dlg", "topLevel",
                 {{"allowShellResize", "true"}, {"transientFor", "topLevel"}}});
    c.push_back({"form", "Form", "dlgForm", "dlg",
                 {{"background", colors.Next()},
                  {"defaultDistance", "6"}}});
    int next = 0;
    auto add = [&](const char* command, const char* cls, Args args) {
      c.push_back({command, cls, "d" + std::to_string(next++), "dlgForm", std::move(args)});
    };
    std::string above;  // first widget of the previous row
    auto place = [&](Args& args, const std::string& left) {
      if (!above.empty()) {
        args.emplace_back("fromVert", above);
      }
      if (!left.empty()) {
        args.emplace_back("fromHoriz", left);
      }
    };
    for (int row = 0; row < kDialogRows; ++row) {
      const std::string first_word = words.Next();
      Args label = {{"label", first_word + " " + words.Next()},
                    {"font", fonts.Next()},
                    {"foreground", colors.Next()},
                    {"borderWidth", "0"},
                    {"justify", "left"},
                    {"width", label_widths.Next()}};
      place(label, "");
      const std::string label_name = "d" + std::to_string(next);
      add("label", "Label", std::move(label));
      Args text = {{"editType", "edit"},
                   {"width", text_widths.Next()},
                   {"string", words.Next()},
                   {"font", fonts.Next()},
                   {"background", colors.Next()}};
      place(text, label_name);
      add("asciiText", "AsciiText", std::move(text));
      above = label_name;
    }
    auto row_of = [&](const char* command, const char* cls, int count, auto make_args) {
      std::string left;
      std::string first;
      for (int i = 0; i < count; ++i) {
        Args args = make_args();
        place(args, left);
        left = "d" + std::to_string(next);
        if (first.empty()) {
          first = left;
        }
        add(command, cls, std::move(args));
      }
      above = first;
    };
    for (int r = 0; r < 2; ++r) {
      row_of("toggle", "Toggle", 3, [&] {
        return Args{{"label", words.Next()},
                    {"state", rng.Below(2) == 0 ? "true" : "false"},
                    {"font", fonts.Next()},
                    {"foreground", colors.Next()}};
      });
    }
    row_of("command", "Command", 4, [&] {
      return Args{{"label", words.Next()},
                  {"callback", std::string("echo ") + words.Next()},
                  {"translations", translations.Next()},
                  {"foreground", colors.Next()},
                  {"background", colors.Next()}};
    });
    row_of("label", "Label", 2, [&] {
      return Args{{"label", std::string("status ") + words.Next()},
                  {"font", fonts.Next()},
                  {"borderWidth", "0"}};
    });
    for (const Creation& creation : c) {
      dialog.text += "%" + creation.Script() + "\n";
    }
    const std::size_t children = c.size() - 2;
    dialog.text +=
        "%popup dlg none\n"
        "%echo built [isRealized dlg] [llength [children dlgForm]]\n"
        "%destroyWidget dlg\n";
    dialog.lines = c.size() + 3;
    dialog.reply = "built 1 " + std::to_string(children);
    return dialog;
  }

  std::vector<Dialog> templates_;
  std::unique_ptr<wafe::Wafe> wafe_;
  std::unique_ptr<PipeBackend> pipe_;
  const Dialog* dialog_ = nullptr;
  std::size_t next_ = 0;
  std::size_t widgets_before_ = 0;
  std::size_t windows_before_ = 0;
  std::size_t errors_before_ = 0;
  std::size_t target_lines_ = 0;
  std::uint64_t step_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& self_exe) {
  if (name == "roundtrip") {
    return std::make_unique<Roundtrip>(seed, self_exe);
  }
  if (name == "storm") {
    return std::make_unique<Storm>(seed);
  }
  if (name == "redraw") {
    return std::make_unique<Redraw>(seed);
  }
  if (name == "build") {
    return std::make_unique<Build>(seed);
  }
  return nullptr;
}

int RunPrimeBackend() {
  std::string out;
  for (const char* line : kPrimeTree) {
    out += std::string(line) + "\n";
  }
  if (!WriteAll(1, out)) {
    return 1;
  }
  // Phase 3: one number per line in; three %sV lines out, each its own
  // write, as a line-buffered backend would send them.
  std::string pending;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(0, buffer, sizeof(buffer))) > 0) {
    pending.append(buffer, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      const bool numeric =
          !line.empty() && line.find_first_not_of("0123456789") == std::string::npos &&
          line.size() < 12;
      if (!numeric) {
        WriteAll(1, "%sV info label {(invalid input)}\n");
        continue;
      }
      if (!WriteAll(1, "%sV info label thinking...\n") ||
          !WriteAll(1, "%sV result label {" + Factor(std::stol(line)) + "}\n") ||
          !WriteAll(1, "%sV info label {0 seconds}\n")) {
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace e2e
