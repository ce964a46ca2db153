#include "e2ebench/harness.h"

#include <algorithm>
#include <cmath>

#include "src/obs/obs.h"
#include "src/xsim/display.h"
#include "src/xt/app.h"

namespace e2e {

namespace {

constexpr const char* kStageCategory[] = {
    "e2e.xsim",     // kInject
    "e2e.xt",       // kDispatch
    "e2e.xaw",      // kExpose
    "e2e.xsim",     // kFlush
    "e2e.backend",  // kBackendWait
    "e2e.backend",  // kBackendWrite
    "e2e.comm",     // kCommRead
};

void PushSpan(const char* category, const char* name, std::uint64_t start,
              std::uint64_t dur) {
  wobs::Registry::Instance().ring().PushComplete(category, name, start, dur);
}

}  // namespace

void Tracer::Close(Stage stage, const char* name, std::uint64_t start) {
  const std::uint64_t dur = wobs::NowNs() - start;
  stage_ns_[static_cast<int>(stage)] += dur;
  PushSpan(kStageCategory[static_cast<int>(stage)], name, start, dur);
}

void Tracer::BeginOp() {
  request_.emplace();
  op_start_ = wobs::NowNs();
}

void Tracer::EndOp(const char* workload) {
  const std::uint64_t dur = wobs::NowNs() - op_start_;
  op_ns_ += dur;
  ++ops_;
  PushSpan("e2e.op", workload, op_start_, dur);
  request_.reset();
}

double Ladder::MedianUs(Rung rung) const {
  std::vector<std::uint64_t> samples = samples_[static_cast<int>(rung)];
  if (samples.empty()) {
    return 0.0;
  }
  return static_cast<double>(Quantile(samples, 0.5)) / 1000.0;
}

std::uint64_t Quantile(std::vector<std::uint64_t>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index), samples.end());
  return samples[index];
}

void DrainTraced(xtk::AppContext& app, Tracer& tracer) {
  bool any = true;
  while (any) {
    any = false;
    for (xsim::Display* display : app.Displays()) {
      while (display->Pending()) {
        const xsim::Event event = display->NextEvent();
        const bool expose = event.type == xsim::EventType::kExpose;
        tracer.Time(expose ? Stage::kExpose : Stage::kDispatch, xsim::EventTypeName(event.type),
                    [&] { app.DispatchEvent(event); });
        any = true;
      }
      if (tracer.Time(Stage::kFlush, "Display::FlushDamage",
                      [&] { return display->FlushDamage(); }) > 0) {
        any = true;
      }
    }
  }
}

}  // namespace e2e
