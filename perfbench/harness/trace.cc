#include "trace.h"

#include "common.h"

namespace perfbench {

uint32_t Tracer::Begin(const std::string& name, uint64_t request) {
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.request = request;
  span.start = NowSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  spans_[id - 1].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration());
  }
  return out;
}

double Tracer::Total(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

double Tracer::LayerSelf(const std::string& layer) const {
  const std::string prefix = layer + ".";
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) child_time[s.parent] += s.duration();
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) {
      total += s.duration() - child_time[s.id];
    }
  }
  return total;
}

std::string Tracer::ToJson() const {
  std::string out = "[";
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n  {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"name\": " + JsonString(s.name) +
           ", \"request\": " + std::to_string(s.request) +
           ", \"start_us\": " + FormatDouble((s.start - t0) * 1e6) +
           ", \"dur_us\": " + FormatDouble(s.duration() * 1e6) + "}";
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
